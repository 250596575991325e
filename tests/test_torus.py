import itertools
import math

import numpy as np
import pytest

from cstarhodge.algebra import AlgebraSpec
from cstarhodge import torus
from cstarhodge.errors import GeometryMismatch, HypothesisViolated, SpecMismatch, ValidationError
from cstarhodge.module import ModuleSpec, inner_product
from cstarhodge.torus import (
    FourierMultiplier,
    TorusGeometry,
    TorusSection,
    de_rham_complex,
    de_rham_differential,
    derivative_bound_constant,
    embedding_check,
    fourier_norm,
    harmonic_rank_report,
    laplace_solve,
    norm_equivalence_constants,
    product_norm,
    random_section,
    regularity_report,
    section_as_total_vector,
    section_product,
    sobolev_product,
)
from cstarhodge.util import rng_for

SCALAR = ModuleSpec(AlgebraSpec((1,)), 1)


def _no_enumeration(*args, **kwargs):
    raise AssertionError("modes listed before the geometry was validated")


def test_geometry_validation(monkeypatch):
    monkeypatch.setattr(itertools, "product", _no_enumeration)
    for n, band in ((0, 1), (-1, 0), (1, -1)):
        with pytest.raises(ValidationError):
            TorusGeometry(n, band, SCALAR)
    for n, band in ((12, 3), (10**9, 1)):
        with pytest.raises(ValidationError, match="exceed the cap"):
            TorusGeometry(n, band, SCALAR)


def test_mode_cap_boundary(monkeypatch):
    monkeypatch.setattr(torus, "MAX_MODES", 25)
    assert TorusGeometry(2, 2, SCALAR).num_modes == 25
    assert TorusGeometry(1, 12, SCALAR).num_modes == 25
    for n, band in ((2, 3), (3, 2), (1, 13)):
        with pytest.raises(ValidationError, match="cap of 25"):
            TorusGeometry(n, band, SCALAR)


def test_mode_enumeration():
    geo = TorusGeometry(2, 1, SCALAR)
    assert geo.num_modes == 9
    assert tuple(geo.modes[0]) == (-1, -1)
    assert tuple(geo.modes[-1]) == (1, 1)


def test_evaluate_constant_and_single_mode():
    geo = TorusGeometry(1, 1, SCALAR)
    u = geo.form_fiber(0).basis_vector(0)
    const = TorusSection.from_coefficients(geo, 0, {(0,): u})
    for x in (0.0, 0.3, 0.77):
        assert (const.evaluate(np.array([x])) - u).norm() < 1e-15
    wave = TorusSection.from_coefficients(geo, 0, {(1,): u})
    x = 0.3
    got = wave.evaluate(np.array([x]))
    want = np.exp(2j * np.pi * x)
    assert abs(got.entries[0].blocks[0][0, 0] - want) < 1e-14


def test_evaluate_matches_direct_sum():
    alg = AlgebraSpec((2, 1))
    geo = TorusGeometry(2, 1, ModuleSpec(alg, 2))
    rng = rng_for(6, "torus-eval", 0)
    s = random_section(geo, 1, rng)
    pts = rng.random((100, 2))
    for x in pts[:10]:
        direct = None
        for q in geo.modes:
            c = s.coefficient(q) * np.exp(2j * np.pi * float(q @ x))
            direct = c if direct is None else direct + c
        assert (s.evaluate(x) - direct).norm() < 1e-12
    # vectorized fiber norms agree with pointwise evaluation
    norms = s.norm_at_points(pts)
    for x, vn in zip(pts[:10], norms[:10]):
        assert abs(s.evaluate(x).norm() - vn) < 1e-11


def test_product_constants_and_orthogonality():
    geo = TorusGeometry(1, 1, SCALAR)
    u = geo.form_fiber(0).basis_vector(0)
    a = TorusSection.from_coefficients(geo, 0, {(0,): u})
    b = TorusSection.from_coefficients(geo, 0, {(1,): u})
    assert abs(section_product(a, a).blocks[0][0, 0] - 1.0) < 1e-15
    assert section_product(a, b).norm() < 1e-15
    assert abs(section_product(a, a).norm() - inner_product(u, u).norm()) < 1e-15


def test_parseval_against_quadrature():
    alg = AlgebraSpec((2,))
    geo = TorusGeometry(2, 1, ModuleSpec(alg, 1))
    rng = rng_for(6, "torus-parseval", 0)
    s1, s2 = random_section(geo, 0, rng), random_section(geo, 0, rng)
    g = 4 * geo.band_limit
    acc = None
    for x in itertools.product(np.arange(g) / g, repeat=2):
        term = inner_product(s1.evaluate(np.array(x)), s2.evaluate(np.array(x)))
        acc = term if acc is None else acc + term
    quad = (1.0 / g**2) * acc
    assert (quad - section_product(s1, s2)).norm() < 1e-8


def test_sobolev_product_reductions():
    geo = TorusGeometry(2, 1, SCALAR)
    rng = rng_for(6, "torus-sobolev", 0)
    s1, s2 = random_section(geo, 0, rng), random_section(geo, 0, rng)
    assert (sobolev_product(s1, s2, 0.0) - section_product(s1, s2)).norm() < 1e-13
    u = geo.form_fiber(0).basis_vector(0)
    wave = TorusSection.from_coefficients(geo, 0, {(1, 0): u})
    g = sobolev_product(wave, wave, 1.0)
    assert abs(g.blocks[0][0, 0] - (1 + 4 * math.pi**2)) < 1e-12
    # monotone in t >= 0
    norms = [product_norm(s1, t) for t in (0.0, 1.0, 2.0, 3.0)]
    assert all(x <= y + 1e-12 for x, y in zip(norms, norms[1:]))


def test_fourier_norm_values():
    geo = TorusGeometry(2, 1, SCALAR)
    u = geo.form_fiber(0).basis_vector(0)
    zero_mode = TorusSection.from_coefficients(geo, 0, {(0, 0): u})
    for t in (-2.0, 0.0, 3.0):
        assert abs(fourier_norm(zero_mode, t) - 1.0) < 1e-14
    wave = TorusSection.from_coefficients(geo, 0, {(1, 0): u})
    assert abs(fourier_norm(wave, 1.0) - math.sqrt(2.0)) < 1e-14


def test_norm_equivalence():
    rng = rng_for(6, "torus-equiv", 0)
    for alg_blocks in ((1,), (2, 1)):
        geo = TorusGeometry(2, 1, ModuleSpec(AlgebraSpec(alg_blocks), 1))
        for t in (-1.0, 0.0, 2.0):
            c = norm_equivalence_constants(geo, t)
            assert c.ratio_min <= c.ratio_max
            for _ in range(10):
                s = random_section(geo, 0, rng)
                pn, fn = product_norm(s, t), fourier_norm(s, t)
                assert pn <= c.upper * fn * (1 + 1e-12)
                assert pn >= c.lower_safe * fn * (1 - 1e-12)


def test_embedding_zero_section():
    geo = TorusGeometry(1, 1, SCALAR)
    rep = embedding_check(geo.zero_section(0), 2.0, (1,))
    assert rep["sup_grid"] == 0.0 and rep["bound"] == 0.0 and rep["passed"]


def test_embedding_constant_section():
    geo = TorusGeometry(1, 1, SCALAR)
    u = geo.form_fiber(0).basis_vector(0)
    const = TorusSection.from_coefficients(geo, 0, {(0,): u})
    rep = embedding_check(const, 1.0, (0,))
    assert abs(rep["sup_grid"] - 1.0) < 1e-12
    assert rep["constant"] >= 1.0 and rep["passed"]


def test_band_constant_sqrt2():
    assert abs(derivative_bound_constant(1, 1.0, (0,), band=1) - math.sqrt(2.0)) < 1e-14


def _brute_lattice_sum(n, t, a, radius):
    axis = np.arange(-radius, radius + 1, dtype=float)
    sq = sum(g**2 for g in np.meshgrid(*([axis] * n), indexing="ij"))
    return float(np.sum(sq**a / (1.0 + sq) ** t))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("radius", [0, 1, 2, 5])
def test_lattice_sum_matches_brute_force(n, radius):
    for a in (0, 1, 2):
        for t in (1.5, 4.0):
            want = _brute_lattice_sum(n, t, a, radius)
            got = torus._lattice_sum(n, t, a, radius)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0)
    # with a = 0 and t = 0 every point weighs 1, so the counts total the cube
    assert torus._lattice_sum(n, 0.0, 0, radius) == (2 * radius + 1) ** n


def test_constant_depends_on_alpha_only_through_order():
    torus._lattice_sum.cache_clear()
    for radius, band in ((64, None), (None, 3)):
        for order in (0, 1, 2):
            alphas = {a for a in itertools.product(range(order + 1), repeat=3) if sum(a) == order}
            values = {derivative_bound_constant(3, 5.0, a, radius=radius, band=band) for a in alphas}
            assert len(values) == 1
    # one lattice sum per (radius or band, |alpha|), shared by every alpha
    assert torus._lattice_sum.cache_info().misses == 6


def test_full_constant_dominates_band_and_shrinks():
    c64 = derivative_bound_constant(1, 2.0, (1,), radius=64)
    c128 = derivative_bound_constant(1, 2.0, (1,), radius=128)
    assert c128 <= c64
    assert c128 >= derivative_bound_constant(1, 2.0, (1,), band=500)


def test_hypothesis_rejection():
    for n, t, alpha in [(1, 1.0, (1,)), (2, 1.0, (0, 0)), (1, 0.5, (0,)), (2, 1.5, (1, 0))]:
        with pytest.raises(HypothesisViolated):
            derivative_bound_constant(n, t, alpha)
    geo = TorusGeometry(1, 1, SCALAR)
    s = random_section(geo, 0, rng_for(6, "torus-hyp", 0))
    with pytest.raises(HypothesisViolated):
        embedding_check(s, 1.0, (1,))


def test_embedding_random_sections():
    geo = TorusGeometry(1, 2, ModuleSpec(AlgebraSpec((2,)), 1))
    for i in range(25):
        s = random_section(geo, 0, rng_for(6, "torus-emb", i))
        for alpha in ((0,), (1,)):
            rep = embedding_check(s, 2.0, alpha)
            assert rep["passed"], rep


def test_multiplier_identity_and_adjoint():
    geo = TorusGeometry(2, 1, ModuleSpec(AlgebraSpec((2,)), 1))
    rng = rng_for(6, "torus-mult", 0)
    s1, s2 = random_section(geo, 0, rng), random_section(geo, 0, rng)
    ident = FourierMultiplier.identity(geo, 0)
    assert (ident.apply(s1) - s1).rows[0].size == s1.rows[0].size
    assert (ident.apply(s1) - s1).coefficient((0, 0)).norm() < 1e-15
    values = rng.standard_normal(geo.num_modes) + 1j * rng.standard_normal(geo.num_modes)
    m = FourierMultiplier(geo, 0, values)
    lhs = section_product(m.apply(s1), s2)
    rhs = section_product(s1, m.adjoint().apply(s2))
    assert (lhs - rhs).norm() < 1e-10
    # 1 + laplacian realizes the t=1 pairing
    one_plus = FourierMultiplier(
        geo, 0, FourierMultiplier.identity(geo, 0).values
        + FourierMultiplier.laplacian(geo, 0).values
    )
    assert (section_product(s1, one_plus.apply(s2)) - sobolev_product(s1, s2, 1.0)).norm() < 1e-10


def test_derham_n1_is_2pi_iq():
    geo = TorusGeometry(1, 2, SCALAR)
    d0 = de_rham_differential(geo, 0)
    rng = rng_for(6, "torus-d1", 0)
    s = random_section(geo, 0, rng)
    image = section_as_total_vector(s)
    got = d0(image)
    mult = FourierMultiplier(geo, 1, 2j * np.pi * geo.modes[:, 0].astype(complex))
    want = section_as_total_vector(mult.apply(TorusSection(geo, 1, s.rows)))
    assert (got - want).norm() < 1e-12
    # the zero mode is annihilated
    const = TorusSection.from_coefficients(geo, 0, {(0,): geo.form_fiber(0).basis_vector(0)})
    assert d0(section_as_total_vector(const)).norm() < 1e-15


def test_derham_square_zero_spec2():
    geo = TorusGeometry(2, 1, ModuleSpec(AlgebraSpec((2,)), 1))
    cx = de_rham_complex(geo)
    assert max(cx.square_residuals() + [0.0]) < 1e-12


def test_assembled_laplacian_matches_multiplier():
    geo = TorusGeometry(2, 1, ModuleSpec(AlgebraSpec((2,)), 1))
    cx = de_rham_complex(geo)
    rng = rng_for(6, "torus-lap", 0)
    for k in range(3):
        s = random_section(geo, k, rng)
        via_cx = cx.laplacian(k)(section_as_total_vector(s))
        via_mult = section_as_total_vector(FourierMultiplier.laplacian(geo, k).apply(s))
        assert (via_cx - via_mult).norm() < 1e-10 * max(1.0, via_mult.norm())


def test_harmonic_ranks():
    cases = [
        (1, 1, (1, 1)),
        (2, 1, (1, 2, 1)),
        (3, 2, (2, 6, 6, 2)),
    ]
    for n, r, expected in cases:
        geo = TorusGeometry(n, 2, ModuleSpec(AlgebraSpec((1,)), r))
        reports = harmonic_rank_report(geo)
        assert tuple(rep["free_rank"] for rep in reports) == expected
        for rep in reports:
            assert rep["passed"]
            assert rep["kernel_modes"] == [tuple([0] * n)]
            assert rep["max_multiplier_residual"] < 1e-10


def test_harmonic_ranks_cross_check_assembled():
    geo = TorusGeometry(2, 1, SCALAR)
    cx = de_rham_complex(geo)
    dims = [cx.cohomology_report(k).harmonic_dim for k in range(3)]
    assert dims == [1, 2, 1]
    reports = harmonic_rank_report(geo)
    assert [rep["harmonic_dim"] for rep in reports] == dims


def test_regularity_constant_rhs():
    geo = TorusGeometry(2, 2, SCALAR)
    u0 = geo.form_fiber(0).basis_vector(0)
    f = TorusSection.from_coefficients(geo, 0, {(0, 0): u0})
    u, mean = laplace_solve(f)
    assert fourier_norm(u, 0.0) == 0.0
    assert (mean.coefficient((0, 0)) - u0).norm() < 1e-15


def test_regularity_single_mode():
    geo = TorusGeometry(2, 2, SCALAR)
    u0 = geo.form_fiber(0).basis_vector(0)
    q = (1, 2)
    f = TorusSection.from_coefficients(geo, 0, {q: u0})
    u, _ = laplace_solve(f)
    expect = 1.0 / (4 * math.pi**2 * 5.0)
    assert abs(u.coefficient(q).entries[0].blocks[0][0, 0] - expect) < 1e-15


def test_regularity_report_random():
    geo = TorusGeometry(2, 2, ModuleSpec(AlgebraSpec((2,)), 1))
    for i in range(10):
        f = random_section(geo, 0, rng_for(6, "torus-reg", i))
        rep = regularity_report(geo, 0, f)
        assert rep.passed
        assert rep.solve_residual <= 1e-9
        assert rep.supports_agree and rep.kernel_is_zero_mode
        assert abs(rep.gain_constant - 2.0 / (4 * math.pi**2)) < 1e-13


def test_geometry_mismatch_rejected():
    g1 = TorusGeometry(1, 1, SCALAR)
    g2 = TorusGeometry(1, 2, SCALAR)
    rng = rng_for(6, "torus-mismatch", 0)
    s1, s2 = random_section(g1, 0, rng), random_section(g2, 0, rng)
    with pytest.raises(GeometryMismatch):
        section_product(s1, s2)
    with pytest.raises(GeometryMismatch):
        s1 + s2
    with pytest.raises(GeometryMismatch):
        FourierMultiplier.identity(g1, 0).apply(s2)
    with pytest.raises(GeometryMismatch):
        s1.coefficient((5,))


def test_form_slot_cap(monkeypatch):
    # with band 0 there is one mode, but degree k carries C(n, k) slots
    monkeypatch.setattr(itertools, "product", _no_enumeration)
    for n in (13, 40, 10**9):
        with pytest.raises(ValidationError, match="exterior slots exceed the cap"):
            TorusGeometry(n, 0, SCALAR)


def test_form_slot_cap_boundary(monkeypatch):
    monkeypatch.setattr(torus, "MAX_FORM_SLOTS", 36)
    assert TorusGeometry(2, 1, SCALAR).num_modes == 9  # 9 modes * 2^2 = 36
    assert TorusGeometry(5, 0, SCALAR).num_modes == 1  # 2^5 = 32
    for n, band in ((6, 0), (3, 1), (1, 9)):
        with pytest.raises(ValidationError, match="cap of 36"):
            TorusGeometry(n, band, SCALAR)


def _grid_guard(real):
    """itertools.product that lists modes (ranges) but fails on grid axes (arrays)."""

    def guarded(*args, **kwargs):
        if any(isinstance(a, np.ndarray) for a in args):
            raise AssertionError("grid points listed before the size was checked")
        return real(*args, **kwargs)

    return guarded


def test_embedding_grid_cap(monkeypatch):
    monkeypatch.setattr(itertools, "product", _grid_guard(itertools.product))
    geo = TorusGeometry(3, 3, SCALAR)
    s = random_section(geo, 0, rng_for(6, "torus-grid-cap", 0))

    def no_phases(*args, **kwargs):
        raise AssertionError("phases computed before the size was checked")

    monkeypatch.setattr(TorusSection, "norm_at_points", no_phases)
    # default grid 24^3 points times 343 modes
    with pytest.raises(ValidationError, match="13824 grid points times 343 modes"):
        embedding_check(s, 4.0, (0, 0, 0))
    pts = np.zeros((torus.MAX_GRID_PHASES // geo.num_modes + 1, 3))
    with pytest.raises(ValidationError, match="exceed the cap"):
        embedding_check(s, 4.0, (0, 0, 0), grid=pts)


def test_embedding_grid_cap_boundary(monkeypatch):
    geo = TorusGeometry(1, 1, SCALAR)
    s = random_section(geo, 0, rng_for(6, "torus-grid-cap", 1))
    monkeypatch.setattr(torus, "MAX_GRID_PHASES", 24)
    assert embedding_check(s, 2.0, (0,))["grid_points"] == 8  # 8 points * 3 modes
    with pytest.raises(ValidationError, match="9 grid points times 3 modes"):
        embedding_check(s, 2.0, (0,), grid=9)


def test_form_fiber_cap(monkeypatch):
    # the widest form fiber, C(n, n // 2) copies of the fiber, is capped too
    monkeypatch.setattr(itertools, "product", _no_enumeration)
    for n, fiber in (
        (1, ModuleSpec(AlgebraSpec((1,)), 3000)),
        (12, ModuleSpec(AlgebraSpec((1,)), 3)),  # C(12, 6) = 924, times 3
        (2, ModuleSpec(AlgebraSpec((46,)), 1)),
    ):
        with pytest.raises(ValidationError, match="largest form fiber .* exceeds the cap of 2048"):
            TorusGeometry(n, 0, fiber)


def test_form_fiber_cap_boundary(monkeypatch):
    assert TorusGeometry(12, 0, SCALAR).num_modes == 1  # 924 under the real cap
    monkeypatch.setattr(torus, "MAX_MODULE_DIM", 12)
    for n, blocks, rank in ((4, (1,), 2), (1, (2,), 3), (2, (1, 1, 2), 1)):
        assert TorusGeometry(n, 1, ModuleSpec(AlgebraSpec(blocks), rank)).dimension == n
    for n, blocks, rank in ((5, (1,), 2), (1, (1,), 13), (2, (2, 2), 1)):
        with pytest.raises(ValidationError, match="exceeds the cap of 12"):
            TorusGeometry(n, 0, ModuleSpec(AlgebraSpec(blocks), rank))


def test_section_stack_shape_checked():
    alg = AlgebraSpec((2, 1))
    geo = TorusGeometry(1, 1, ModuleSpec(alg, 2))
    s = random_section(geo, 1, rng_for(6, "torus-stack", 0))
    assert [b.shape for b in s.rows] == [(3, 2, 4), (3, 1, 2)]
    for bad in (
        s.rows[:1],
        [np.zeros((3, 2, 2, 2)), np.zeros((3, 2, 1, 1))],  # entry layout (modes, m, n_b, n_b)
    ):
        with pytest.raises(SpecMismatch):
            TorusSection(geo, 1, bad)
