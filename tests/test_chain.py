import numpy as np
import pytest

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import (
    ChainComplex,
    free_rank_of_projection,
    laplacian_mats,
    random_complex,
    random_unitary_morphism,
    verify_chain_map,
)
from cstarhodge.errors import IndexOutOfRange, NotACocycle, SpecMismatch
from cstarhodge.hom import Morphism, identity_morphism
from cstarhodge.module import ModuleSpec
from cstarhodge.util import rng_for


def scalar_module(rank=1):
    return ModuleSpec(AlgebraSpec((1,)), rank)


def test_identity_complex_laplacians():
    mod = scalar_module()
    cx = ChainComplex([mod, mod], [identity_morphism(mod)])
    for i in (0, 1):
        lap = cx.laplacian(i)
        assert (lap - identity_morphism(mod)).norm() < 1e-14
        rep = cx.cohomology_report(i)
        assert rep.harmonic_dim == 0 and rep.cohomology_dim == 0


def test_zero_complex_dims():
    mod = scalar_module()
    cx = ChainComplex([mod], [])
    rep = cx.cohomology_report(0)
    assert rep.harmonic_dim == 1 and rep.cohomology_dim == 1
    assert rep.free_rank == 1


def test_square_violation_rejected():
    mod = scalar_module()
    one = identity_morphism(mod)
    with pytest.raises(SpecMismatch):
        ChainComplex([mod, mod, mod], [one, one])


def test_laplacian_matches_dense_oracle():
    rng = rng_for(4, "chain-oracle", 0)
    cx, _ = random_complex(rng, algebra=AlgebraSpec((2,)), max_modules=4)
    for i in range(len(cx.modules)):
        lap = cx.laplacian(i).embed()
        d_in = cx.differential(i - 1).embed()
        d_out = cx.differential(i).embed()
        oracle = d_in @ d_in.conj().T + d_out.conj().T @ d_out
        assert np.allclose(lap, oracle, atol=1e-11 * max(1.0, np.abs(oracle).max()))


def test_parametrix_matches_dense_oracle():
    rng = rng_for(4, "chain-poracle", 0)
    cx, _ = random_complex(rng, algebra=AlgebraSpec((2,)))
    for i in range(len(cx.modules)):
        par = cx.parametrix(i)
        lap = cx.laplacian(i).embed()
        g_oracle = np.linalg.pinv(lap)
        p_oracle = np.eye(lap.shape[0]) - g_oracle @ lap
        assert np.allclose(par.green.embed(), g_oracle, atol=1e-9)
        assert np.allclose(par.projector.embed(), p_oracle, atol=1e-9)


def test_parametrix_identities_random():
    for k in range(10):
        rng = rng_for(4, "chain-ids", k)
        cx, _ = random_complex(rng)
        for par in cx.parametrix_family():
            r = par.residuals()
            assert r["green_laplacian_plus_projector"] <= 1e-10
            assert r["laplacian_green_plus_projector"] <= 1e-10
            assert r["laplacian_kills_projector"] <= 1e-10
            assert r["green_kills_projector"] <= 1e-10
            assert r["projector_idempotent"] <= 1e-10
            assert par.verify(1e-8)


def test_chain_map_identities_random():
    for k in range(10):
        rng = rng_for(4, "chain-map", k)
        cx, _ = random_complex(rng)
        rep = verify_chain_map(cx, cx.parametrix_family(), tol=1e-8)
        assert rep["passed"], rep
        assert rep["max_residual"] <= 1e-10


def test_planted_harmonic_dims():
    for k in range(20):
        rng = rng_for(4, "chain-dims", k)
        cx, plan = random_complex(rng)
        d = cx.algebra.dim
        for i, free in enumerate(plan["harmonic_free_ranks"]):
            rep = cx.cohomology_report(i)
            assert rep.harmonic_dim == free * d
            assert rep.cohomology_dim == free * d
            assert rep.dims_match
            assert rep.free_rank == free


def test_kernel_intersection():
    rng = rng_for(4, "chain-ker", 0)
    cx, _ = random_complex(rng)
    for i in range(len(cx.modules)):
        rep = cx.kernel_intersection_check(i)
        assert rep["dims_match"]
        assert rep["differential_on_harmonics"] <= 1e-8
        assert rep["adjoint_on_harmonics"] <= 1e-8


def test_hodge_decomposition():
    rng = rng_for(4, "chain-split", 0)
    cx, _ = random_complex(rng)
    for i in range(len(cx.modules)):
        v = cx.modules[i].random_vector(rng)
        split = cx.hodge_decompose(i, v)
        back = split.harmonic + split.exact + split.coexact
        assert (v - back).norm() <= 1e-8 * max(1.0, v.norm())
        for key, value in split.orthogonality.items():
            assert value <= 1e-8 * max(1.0, v.norm() ** 2), (key, value)
        d_in = cx.differential(i - 1)
        d_out = cx.differential(i)
        assert (split.exact - d_in(split.exact_potential)).norm() <= 1e-8
        assert (split.coexact - d_out.adjoint()(split.coexact_potential)).norm() <= 1e-8


def test_hodge_isomorphism_roundtrip():
    rng = rng_for(4, "chain-iso", 0)
    cx, _ = random_complex(rng)
    for i in range(len(cx.modules)):
        iso = cx.hodge_isomorphism(i)
        par = cx.parametrix(i)
        v = cx.modules[i].random_vector(rng)
        # build a cocycle by removing the coexact part
        z = v - cx.differential(i).pseudoinverse()(cx.differential(i)(v))
        h, w = iso.cocycle_to_harmonic(z)
        # harmonic rep is fixed by the projector and differs by an exact term
        assert (h - par.projector(h)).norm() <= 1e-8 * max(1.0, h.norm())
        assert (z - h - cx.differential(i - 1)(w)).norm() <= 1e-8 * max(1.0, z.norm())
        # round trip on harmonic vectors is the identity
        hh = par.projector(v)
        h2, _ = iso.cocycle_to_harmonic(iso.harmonic_to_cocycle(hh))
        assert (h2 - hh).norm() <= 1e-8 * max(1.0, hh.norm())


def test_not_a_cocycle_rejected():
    # on the identity complex every nonzero vector has nonzero image
    rng = rng_for(4, "chain-notco", 1)
    mod = scalar_module(2)
    cx = ChainComplex([mod, mod], [identity_morphism(mod)])
    iso = cx.hodge_isomorphism(0)
    v = mod.random_vector(rng)
    assert v.norm() > 0
    with pytest.raises(NotACocycle):
        iso.cocycle_to_harmonic(v)


def test_free_rank_profile():
    alg = AlgebraSpec((2, 1))
    mod = ModuleSpec(alg, 3)
    assert free_rank_of_projection(identity_morphism(mod)) == 3
    # projective module of non-integer profile has no free rank
    p = np.diag([1.0, 0.0]).astype(complex)
    proj = ModuleSpec(AlgebraSpec((2,)), 1, projection=(p,))
    assert free_rank_of_projection(identity_morphism(proj)) is None


def test_generated_complex_structure():
    for k in range(10):
        rng = rng_for(4, "chain-gen", k)
        cx, plan = random_complex(rng)
        assert tuple(m.rank for m in cx.modules) == tuple(plan["module_ranks"])
        assert max(cx.square_residuals() + [0.0]) < 1e-12
        for i, r in enumerate(plan["differential_ranks"]):
            assert cx.diffs[i].concrete_rank() == r * cx.algebra.dim
        # conditioning floor keeps rank decisions decisive
        for i in range(len(cx.modules)):
            svals = cx.laplacian(i).singular_values()
            nonzero = svals[svals > 1e-8]
            if nonzero.size:
                assert nonzero.min() > 0.2


def _block_trace_dim(f: Morphism) -> float:
    """sum_b n_b trace R_b: the shadow's trace of a module map."""
    return sum(nb * np.trace(r).real for nb, r in zip(f.algebra.block_sizes, f.mats))


@pytest.mark.parametrize("side", [1.0 + 1e-3, 1.0 - 1e-3], ids=["kept", "dropped"])
@pytest.mark.parametrize("frame", range(3))
def test_every_rank_reader_agrees_at_the_cut(side, frame):
    # D: A^2 -> A^3 over (1, 2) has singular values 1 and 0.5 in block (1,)
    # and 0.7, 0.3, 0.2 and one planted at cutoff * smax * (1 +- 1e-3) in
    # block (2,), seen in a random unitary frame.  The rule keeps the planted
    # value or drops it, and every reader of the rank says the same
    alg, cutoff = AlgebraSpec((1, 2)), 1e-10
    src, tgt = ModuleSpec(alg, 2), ModuleSpec(alg, 3)
    low, high = np.zeros((2, 3)), np.zeros((4, 6))
    low[[0, 1], [0, 1]] = 1.0, 0.5
    high[[0, 1, 2, 3], [0, 1, 2, 3]] = 0.7, 0.3, 0.2, cutoff * side
    rng = rng_for(28, "rank-rule-frames", frame)
    u_src, u_tgt = random_unitary_morphism(src, rng), random_unitary_morphism(tgt, rng)
    d = u_tgt @ Morphism(src, tgt, [low, high]) @ u_src.adjoint()
    want = 2 + 2 * (4 if side > 1 else 3)

    rank, margin = d.rank_with_margin(cutoff)
    assert rank == want and 1.0 < margin < 1.01
    kept = sum(nb * len(t[1]) for nb, t in zip(alg.block_sizes, d.kept_svd(cutoff)) if t is not None)
    assert kept == want
    assert round(_block_trace_dim(d.pseudoinverse(cutoff) @ d)) == want
    cx = ChainComplex([src, tgt], [d])
    assert src.concrete_dim - round(_block_trace_dim(cx.parametrix(0, cutoff).projector)) == want
    assert src.concrete_dim - cx.kernel_intersection_check(0, cutoff)["intersection_nullity"] == want


def test_singular_values_do_not_depend_on_call_order():
    # the pseudoinverse reads the values-only spectra that rank decisions
    # and their margins read, and caches its thin SVDs apart from them
    # (Morphism.kept_svd), so which ran first changes no value
    for k in range(40):
        pinv_first, _ = random_complex(rng_for(6, "svals-order", k))
        svals_first, _ = random_complex(rng_for(6, "svals-order", k))
        for i in range(pinv_first.top_degree + 1):
            expected = svals_first.laplacian(i).singular_values()
            lap = pinv_first.laplacian(i)
            lap.pseudoinverse()
            assert lap.singular_values().tobytes() == expected.tobytes()


def test_end_maps_built_once():
    mod = scalar_module(2)
    cx = ChainComplex([mod, mod], [identity_morphism(mod)])
    for i in (-1, cx.top_degree):
        d = cx.differential(i)
        assert d is cx.differential(i)
        assert d.norm() == 0.0
    assert cx.differential(-1).source.rank == 0 and cx.differential(-1).target == mod
    assert cx.differential(1).source == mod and cx.differential(1).target.rank == 0
    for i in (-2, cx.top_degree + 1):
        with pytest.raises(IndexOutOfRange):
            cx.differential(i)


def _composed_laplacian(cx, i):
    """D_{i-1} D_{i-1}* + D_i* D_i composed as module maps, end zero maps included."""
    d_in, d_out = cx.differential(i - 1), cx.differential(i)
    return d_in @ d_in.adjoint() + d_out.adjoint() @ d_out


def test_end_laplacians_compose_nothing(monkeypatch):
    # the end maps pass through the rank-0 module and add no term: no module
    # map is composed, and the matrices equal the composed formula bit for bit
    calls = []
    compose = Morphism.__matmul__

    def counting(self, other):
        calls.append(1)
        return compose(self, other)

    for k in range(10):
        cx, _ = random_complex(rng_for(9, "chain-ends", k))
        for i in (0, cx.top_degree):
            monkeypatch.setattr(Morphism, "__matmul__", counting)
            lap = cx.laplacian(i)
            monkeypatch.setattr(Morphism, "__matmul__", compose)
            assert not calls
            expected = _composed_laplacian(cx, i)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(lap.mats, expected.mats))


def test_middle_laplacians_match_composed_formula():
    for k in range(10):
        cx, _ = random_complex(rng_for(9, "chain-middle", k))
        for i in range(cx.top_degree + 1):
            expected = _composed_laplacian(cx, i)
            assert all(
                a.tobytes() == b.tobytes() for a, b in zip(cx.laplacian(i).mats, expected.mats)
            )


def test_one_module_laplacian_is_zero():
    mod = ModuleSpec(AlgebraSpec((2, 1)), 2)
    lap = ChainComplex([mod], []).laplacian(0)
    assert [m.shape for m in lap.mats] == [(4, 4), (2, 2)]
    assert lap.norm() == 0.0


def test_stacked_laplacians_equal_each_summand():
    # complexes with equal shapes: one stacked call gives each one's Laplacian
    algebra = AlgebraSpec((1, 2))
    shape = random_complex(rng_for(9, "chain-stack", 0), algebra=algebra)[0]
    cxs = []
    for k in range(5):
        rng = rng_for(9, "chain-frames", k)
        frames = [random_unitary_morphism(m, rng) for m in shape.modules]
        diffs = [frames[j + 1] @ d @ frames[j].adjoint() for j, d in enumerate(shape.diffs)]
        cxs.append(ChainComplex(shape.modules, diffs))
    for i in range(shape.top_degree + 1):
        stacks = [
            [np.stack(b) for b in zip(*(cx.differential(j).mats for cx in cxs))]
            for j in (i - 1, i)
        ]
        for b, stack in enumerate(laplacian_mats(*stacks)):
            for cx, mat in zip(cxs, stack):
                assert mat.tobytes() == cx.laplacian(i).mats[b].tobytes()
