import contextlib
import signal

import numpy as np
import pytest
from scipy.linalg import null_space

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex
from cstarhodge.errors import SpecMismatch
from cstarhodge.hom import (
    Morphism,
    identity_morphism,
    morphism_from_concrete,
    random_morphism,
    singular_rank,
)
from cstarhodge.module import ModuleSpec, inner_product
from cstarhodge.util import rng_for


def test_adjoint_scalar():
    alg = AlgebraSpec((1,))
    mod = ModuleSpec(alg, 1)
    t = Morphism.from_entries(mod, mod, [[alg.scalar(2j)]])
    assert abs(t.adjoint().entry(0, 0).blocks[0][0, 0] + 2j) < 1e-15


def test_adjoint_identity_random_pairs():
    alg = AlgebraSpec((2, 1))
    src, tgt = ModuleSpec(alg, 3), ModuleSpec(alg, 2)
    rng = rng_for(2, "hom-adjoint", 0)
    t = random_morphism(src, tgt, rng)
    ts = t.adjoint()
    for _ in range(100):
        u, v = src.random_vector(rng), tgt.random_vector(rng)
        lhs = inner_product(t(u), v)
        rhs = inner_product(u, ts(v))
        assert (lhs - rhs).norm() < 1e-9 * max(1.0, u.norm() * v.norm())


def test_entry_and_call():
    alg = AlgebraSpec((1,))
    mod = ModuleSpec(alg, 1)
    c = 1.5 - 0.5j
    t = Morphism.from_entries(mod, mod, [[alg.scalar(c)]])
    u = mod.vector([alg.unit()])
    assert abs(t(u).entries[0].blocks[0][0, 0] - c) < 1e-15


def test_shadow_is_homomorphism():
    alg = AlgebraSpec((2,))
    a, b, c = ModuleSpec(alg, 2), ModuleSpec(alg, 3), ModuleSpec(alg, 2)
    rng = rng_for(2, "hom-homo", 0)
    s = random_morphism(a, b, rng)
    t = random_morphism(b, c, rng)
    assert np.allclose((t @ s).embed(), t.embed() @ s.embed(), atol=1e-12)
    assert np.allclose(s.adjoint().embed(), s.embed().conj().T, atol=1e-13)


def test_shadow_action_matches_vectors():
    alg = AlgebraSpec((2, 1))
    src, tgt = ModuleSpec(alg, 3), ModuleSpec(alg, 2)
    rng = rng_for(2, "hom-shadow", 0)
    t = random_morphism(src, tgt, rng)
    u = src.random_vector(rng)
    assert np.allclose(t(u).vec(), t.embed() @ u.vec(), atol=1e-12)


def test_unembed_roundtrip():
    alg = AlgebraSpec((2, 1))
    src, tgt = ModuleSpec(alg, 2), ModuleSpec(alg, 3)
    rng = rng_for(2, "hom-unembed", 0)
    t = random_morphism(src, tgt, rng)
    back = morphism_from_concrete(src, tgt, t.embed())
    assert (t - back).norm() < 1e-12


def test_pseudoinverse_diagonal():
    alg = AlgebraSpec((1,))
    mod = ModuleSpec(alg, 2)
    t = Morphism.from_entries(
        mod, mod,
        [[alg.scalar(2.0), alg.zero()], [alg.zero(), alg.zero()]],
    )
    p = t.pseudoinverse()
    assert abs(p.entry(0, 0).blocks[0][0, 0] - 0.5) < 1e-14
    assert p.entry(1, 1).norm() < 1e-14


def test_moore_penrose_identities():
    rng = rng_for(2, "hom-mp", 0)
    specs = [(1,), (2,), (2, 1)]
    for i in range(200):
        alg = AlgebraSpec(specs[i % len(specs)])
        src = ModuleSpec(alg, 1 + i % 3)
        tgt = ModuleSpec(alg, 1 + (i // 3) % 3)
        t = random_morphism(src, tgt, rng)
        g = t.pseudoinverse()
        scale = max(1.0, t.norm())
        assert (t @ g @ t - t).norm() < 1e-9 * scale
        assert (g @ t @ g - g).norm() < 1e-9 * max(1.0, g.norm())
        assert ((t @ g).adjoint() - t @ g).norm() < 1e-9
        assert ((g @ t).adjoint() - g @ t).norm() < 1e-9
        # matches the dense oracle
        assert np.allclose(g.embed(), np.linalg.pinv(t.embed()), atol=1e-9 * scale)


def test_pseudoinverse_is_module_map():
    # the per-block pseudoinverse is a module map: its shadow is the dense
    # pinv of the shadow, and it commutes with the left algebra action
    alg = AlgebraSpec((2, 2))
    src, tgt = ModuleSpec(alg, 2), ModuleSpec(alg, 3)
    rng = rng_for(2, "hom-mod", 0)
    t = random_morphism(src, tgt, rng)
    g = t.pseudoinverse()
    assert np.allclose(g.embed(), np.linalg.pinv(t.embed()), atol=1e-10)
    a = alg.random(rng)
    u = tgt.random_vector(rng)
    from cstarhodge.module import act
    assert (g(act(a, u)) - act(a, g(u))).norm() < 1e-10


def test_pseudoinverse_takes_no_svd_of_an_empty_block(monkeypatch):
    # a block with no rows or no columns gives the zero (cols, rows) block
    # without an SVD; every other block is bit for bit the former formula,
    # one SVD per block cut at cutoff * the largest value over all blocks.
    # A cold map takes each non-empty block's values-only spectrum, which
    # decides the kept counts, and its thin SVD for the kept triples; both
    # are cached, so a second pseudoinverse and the parametrix of a complex
    # with the map as its differential take no further SVD
    alg = AlgebraSpec((1, 2))
    rng = rng_for(15, "hom-pinv-empty", 0)
    svd = np.linalg.svd
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    for m, n in ((2, 0), (0, 3), (0, 0), (2, 3)):
        t = random_morphism(ModuleSpec(alg, m), ModuleSpec(alg, n), rng)
        svds = [svd(r, full_matrices=False) for r in t.mats if r.size]
        thresh = 1e-10 * max((f.S[0] for f in svds), default=0.0)
        want = iter([(vh[s > thresh].conj().T / s[s > thresh]) @ u[:, s > thresh].conj().T
                     for u, s, vh in svds])
        calls.clear()
        monkeypatch.setattr(np.linalg, "svd", counting)
        g = t.pseudoinverse()
        assert len(calls) == (2 * len(alg.block_sizes) if m * n else 0)
        again = t.pseudoinverse()
        assert all(np.array_equal(a, b) for a, b in zip(again.mats, g.mats))
        cx = ChainComplex([t.source, t.target], [t])
        cx.parametrix(0)
        cx.parametrix(1)
        assert len(calls) == (2 * len(alg.block_sizes) if m * n else 0)
        monkeypatch.undo()
        for r, got in zip(t.mats, g.mats):
            assert got.shape == r.shape[::-1]
            assert np.array_equal(got, next(want) if r.size else np.zeros(got.shape))


def test_rank_identity():
    alg = AlgebraSpec((1,))
    mod = ModuleSpec(alg, 1)
    assert identity_morphism(mod).concrete_rank() == 1


def test_rank_matches_nullspace_oracle():
    rng = rng_for(2, "hom-rank", 0)
    alg = AlgebraSpec((2,))
    src, tgt = ModuleSpec(alg, 3), ModuleSpec(alg, 2)
    for _ in range(20):
        t = random_morphism(src, tgt, rng)
        mat = t.embed()
        oracle = mat.shape[1] - null_space(mat).shape[1]
        # embed maps source coordinates to columns of the acting matrix; the
        # shadow here is (target_dim x source_dim) acting on vec(u)
        assert t.concrete_rank() == oracle


def test_rank_of_derham_d0_on_band():
    # n=2, band 1, scalar fiber: d0 kills exactly the zero mode
    from cstarhodge.torus import TorusGeometry
    from derham_oracle import de_rham_differential
    geo = TorusGeometry(2, 1, ModuleSpec(AlgebraSpec((1,)), 1))
    d0 = de_rham_differential(geo, 0)
    assert d0.concrete_rank() == geo.num_modes - 1


def test_singular_rank_margins():
    rank, margin = singular_rank(np.array([3.0, 2.0, 1e-14]), 1e-10)
    assert rank == 2 and margin > 1.0
    rank, margin = singular_rank(np.array([]), 1e-10)
    assert rank == 0
    assert singular_rank(np.zeros(3), 1e-10)[0] == 0


def _fmax_ratio_rank(svals, cutoff):
    """singular_rank's former formula: the least of fmax(s / thresh, thresh / s), NaN skipped."""
    s = np.asarray(svals, dtype=float)
    thresh = cutoff * s[..., :1]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.fmax(s / thresh, thresh / s)
    rank = np.add.reduce(s > thresh, axis=-1)
    margin = np.fmin.reduce(ratios, axis=-1, initial=np.inf)
    return (int(rank), float(margin)) if s.ndim == 1 else (rank, margin)


@pytest.mark.parametrize("cutoff", [1e-10, 0.3, 2.0])
def test_singular_rank_is_bitwise_the_former_formula(cutoff):
    rng = np.random.default_rng(4)
    random = -np.sort(-rng.random((6, 9)) * 10.0 ** rng.integers(-14, 3, (6, 9)), axis=-1)
    random[:2, -3:] = 0.0  # trailing exact zeros, as a rank-deficient map has
    spectra = [random, np.zeros((3, 5)), np.full((2, 1), 2.5), np.zeros((4, 0)), np.array([[3.0], [0.0]])]
    for stack in spectra:
        for s in [stack, *stack]:  # stacked, then each spectrum on its own
            with np.errstate(all="raise"):  # nothing is divided by zero
                rank, margin = singular_rank(s, cutoff)
            want_rank, want_margin = _fmax_ratio_rank(s, cutoff)
            assert type(rank) is type(want_rank) and type(margin) is type(want_margin)
            assert np.array_equal(rank, want_rank)
            assert np.asarray(margin).tobytes() == np.asarray(want_margin).tobytes()


def test_kernel_and_range_projections():
    rng = rng_for(2, "hom-proj", 0)
    alg = AlgebraSpec((2, 1))
    src, tgt = ModuleSpec(alg, 3), ModuleSpec(alg, 2)
    t = random_morphism(src, tgt, rng)
    ker, coimg = t.range_decomposition()
    ident = identity_morphism(src)
    assert ((ker + coimg) - ident).norm() < 1e-10
    assert (t @ ker).norm() < 1e-10 * max(1.0, t.norm())
    for p in (ker, coimg):
        assert (p @ p - p).norm() < 1e-10
        assert (p.adjoint() - p).norm() < 1e-10


def test_shape_mismatch_rejected():
    alg = AlgebraSpec((2,))
    a, b = ModuleSpec(alg, 2), ModuleSpec(alg, 3)
    rng = rng_for(2, "hom-shape", 0)
    s = random_morphism(a, b, rng)
    with pytest.raises(SpecMismatch):
        s @ s  # target does not match source


def test_projective_morphism_respects_projection():
    alg = AlgebraSpec((2,))
    p = np.diag([1.0, 0.0]).astype(complex)
    mod = ModuleSpec(alg, 1, projection=(p,))
    free = ModuleSpec(alg, 2)
    rng = rng_for(2, "hom-resp", 0)
    t = random_morphism(mod, free, rng)
    assert t.respects_projections()


def test_respects_projections_checks_both_sides():
    # a map leaking on the source side only, or on the target side only
    alg = AlgebraSpec((1,))
    proj = ModuleSpec(alg, 2, projection=(np.diag([1.0, 0.0]),))
    free = ModuleSpec(alg, 1)
    assert not Morphism(proj, free, [np.array([[0.0], [1.0]])]).respects_projections()
    assert not Morphism(free, proj, [np.array([[0.0, 1.0]])]).respects_projections()
    assert Morphism(free, proj, [np.array([[1.0, 0.0]])]).respects_projections()
    # relative to the map's norm: a leak of 1e-10 of a map of norm 100 passes at 1e-9
    assert Morphism(free, proj, [np.array([[100.0, 1e-8]])]).respects_projections(1e-9)
    assert not Morphism(free, proj, [np.array([[100.0, 1e-6]])]).respects_projections(1e-9)


# -- per-block numerics against the dense shadow --------------------------------------

ORACLE_ALGEBRAS = [(1,), (2,), (1, 2), (2, 2), (3,)]


def _projective(alg, rank, rng):
    """Projective module: a unitary conjugate of a diagonal of algebra projections."""
    from cstarhodge.chain import random_unitary_morphism

    free = ModuleSpec(alg, rank)
    diag = []
    for nb in alg.block_sizes:
        # R_b is block diagonal, entry (i, i) = diag(1 for the first i + 1 rows)
        arr = np.diag(
            np.concatenate([(np.arange(nb) <= i) for i in range(rank)]).astype(complex)
        )
        diag.append(arr)
    u = random_unitary_morphism(free, rng)
    p = u @ Morphism(free, free, diag) @ u.adjoint()
    return ModuleSpec(alg, rank, projection=tuple(p.mats))


def _oracle_cases(alg, rng):
    """(source, target, morphism) triples: random, rank 0, zero and projective."""
    mods = [ModuleSpec(alg, r) for r in (0, 1, 2, 3)]
    mods.append(_projective(alg, 2, rng))
    cases = []
    for src in mods:
        for tgt in mods:
            cases.append(random_morphism(src, tgt, rng))
    cases.append(Morphism.zero(mods[2], mods[3]))
    cases.append(Morphism.zero(mods[4], mods[1]))
    return cases


def _assert_matches_shadow(t, cutoff=1e-10):
    mat = t.embed()
    d = t.algebra.dim
    assert t.singular_values().shape == (min(t.source.rank, t.target.rank) * d,)
    if min(mat.shape):
        oracle = np.linalg.svd(mat, compute_uv=False)
        assert np.allclose(t.singular_values(), oracle, atol=1e-12)
    scale = max(1.0, t.norm())
    pinv = t.pseudoinverse(cutoff)
    assert pinv.source == t.target and pinv.target == t.source
    assert np.allclose(
        pinv.embed(), np.linalg.pinv(mat, rcond=cutoff), atol=1e-10 * scale
    )
    assert np.allclose(t.adjoint().embed(), mat.conj().T, atol=1e-15)


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_per_block_numerics_match_shadow(blocks):
    alg = AlgebraSpec(blocks)
    rng = rng_for(2, "hom-oracle", len(blocks) * 10 + blocks[0])
    for t in _oracle_cases(alg, rng):
        _assert_matches_shadow(t)
        u = t.source.random_vector(rng)
        assert np.allclose(t(u).vec(), t.embed() @ u.vec(), atol=1e-12)
        for s in (random_morphism(t.target, ModuleSpec(alg, 2), rng),
                  Morphism.zero(t.target, ModuleSpec(alg, 1))):
            assert np.allclose((s @ t).embed(), s.embed() @ t.embed(), atol=1e-12)


def test_pseudoinverse_svals_reuse_and_cache():
    alg = AlgebraSpec((1, 2))
    rng = rng_for(2, "hom-reuse", 0)
    t = random_morphism(ModuleSpec(alg, 3), ModuleSpec(alg, 2), rng)
    t.pseudoinverse()
    filled = t.singular_values()
    fresh = Morphism(t.source, t.target, t.mats).singular_values()
    assert np.allclose(filled, fresh, atol=1e-13)
    assert np.all(np.diff(filled) <= 0.0)


def test_pseudoinverse_cutoff_is_global_not_per_block():
    # block (1,) carries values near 1, block (2,) only values near 1e-12, so
    # the whole M2 block lies below cutoff * (largest value over all blocks)
    alg = AlgebraSpec((1, 2))
    src, tgt = ModuleSpec(alg, 2), ModuleSpec(alg, 3)
    rng = rng_for(2, "hom-global-cutoff", 0)
    t = random_morphism(src, tgt, rng)
    t = Morphism(src, tgt, [t.mats[0], 1e-12 * np.asarray(t.mats[1])])
    cutoff = 1e-10
    s = t.singular_values()
    assert s[0] > 0.1 and np.count_nonzero(s > cutoff * s[0]) == 2
    pinv = t.pseudoinverse(cutoff)
    assert np.abs(pinv.mats[1]).max() == 0.0
    assert np.abs(pinv.mats[0]).max() > 0.1
    _assert_matches_shadow(t, cutoff)


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_random_unitary_is_polar_factor_of_shadow(blocks):
    from cstarhodge.chain import random_unitary_morphism

    alg = AlgebraSpec(blocks)
    mod = ModuleSpec(alg, 3)
    u = random_unitary_morphism(mod, rng_for(2, "hom-polar", 0))
    assert (u.adjoint() @ u - identity_morphism(mod)).norm() < 1e-12
    # the same draws, with the rejection test and polar factor on the shadow
    rng = rng_for(2, "hom-polar", 0)
    while True:
        w, s, vh = np.linalg.svd(random_morphism(mod, mod, rng).embed())
        if s[-1] >= 1e-3 * s[0]:
            break
    oracle = morphism_from_concrete(mod, mod, w @ vh)
    assert (u - oracle).norm() < 1e-12


@contextlib.contextmanager
def _deadline(seconds):
    """Fail rather than hang if the body does not return in time."""

    def expire(signum, frame):
        raise TimeoutError(f"no result within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def _assert_unitary_on(u, mod):
    ident = identity_morphism(mod)
    assert (u.adjoint() @ u - ident).norm() < 1e-12
    assert (u @ u.adjoint() - ident).norm() < 1e-12


def test_random_unitary_on_rank_one_module_over_m2():
    # a projected Gaussian has trailing singular values exactly 0; a rejection
    # test over all of them turns down every draw and never returns
    from cstarhodge.chain import random_unitary_morphism

    p = np.diag([1.0, 0.0]).astype(complex)
    mod = ModuleSpec(AlgebraSpec((2,)), 1, projection=(p,))
    with _deadline(30):
        u = random_unitary_morphism(mod, rng_for(2, "hom-proj", 0))
    _assert_unitary_on(u, mod)


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_random_unitary_on_projective_module_is_polar_factor_of_shadow(blocks):
    from cstarhodge.chain import random_unitary_morphism

    alg = AlgebraSpec(blocks)
    mod = _projective(alg, 2, rng_for(2, "hom-proj-module", 0))
    with _deadline(30):
        u = random_unitary_morphism(mod, rng_for(2, "hom-proj-polar", 0))
    _assert_unitary_on(u, mod)
    # the same draws on the shadow, keeping its first concrete_dim triples
    k = mod.concrete_dim
    rng = rng_for(2, "hom-proj-polar", 0)
    while True:
        w, s, vh = np.linalg.svd(random_morphism(mod, mod, rng).embed())
        if s[k - 1] >= 1e-3 * s[0]:
            break
    oracle = morphism_from_concrete(mod, mod, w[:, :k] @ vh[:k])
    assert (u - oracle).norm() < 1e-12


def test_block_matrix_shape_checked():
    alg = AlgebraSpec((2, 1))
    src, tgt = ModuleSpec(alg, 2), ModuleSpec(alg, 3)
    assert Morphism(src, tgt, [np.ones((4, 6)), np.ones((2, 3))]).entry(1, 2).norm() > 0
    for bad in (
        [np.ones((4, 6))],  # a block missing
        [np.ones((6, 4)), np.ones((3, 2))],  # transposed
        [np.ones((2, 3, 2, 2)), np.ones((2, 3, 1, 1))],  # entry layout (m, n, nb, nb)
    ):
        with pytest.raises(SpecMismatch):
            Morphism(src, tgt, bad)
