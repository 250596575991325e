import contextlib
import io
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cstarhodge.algebra import AlgebraSpec
from cstarhodge import torus
from cstarhodge.errors import GeometryMismatch, HypothesisViolated, SpecMismatch, ValidationError
from cstarhodge.module import ModuleSpec, inner_product
from cstarhodge.torus import (
    FourierMultiplier,
    TorusGeometry,
    TorusSection,
    derivative_bound_constant,
    embedding_check,
    embedding_checks,
    fourier_norm,
    harmonic_rank_report,
    laplace_solve,
    norm_equivalence_constants,
    product_norm,
    random_section,
    regularity_report,
    regularity_reports,
    section_product,
    sobolev_product,
)
from cstarhodge.chain import ChainComplex, free_rank_of_projection
from cstarhodge.hom import Morphism, identity_morphism
from cstarhodge.symbol import _scalar_mats, de_rham_symbol_coeffs
from cstarhodge.util import rng_for
from derham_oracle import de_rham_complex, de_rham_differential, section_as_total_vector

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


def test_form_slot_cap_at_4096():
    # (2N + 1)^n 2^n = 4096 only at n = 12, band 0; the largest accepted band
    # in one and two dimensions, then the next size up, is refused
    assert torus.MAX_FORM_SLOTS == 4096
    assert TorusGeometry(12, 0, SCALAR).num_modes == 1
    assert TorusGeometry(1, 1023, SCALAR).num_modes == 2047  # 4094 pairs
    assert TorusGeometry(2, 15, SCALAR).num_modes == 961  # 3844 pairs
    for n, band in ((13, 0), (12, 1), (1, 1024), (2, 16)):
        with pytest.raises(ValidationError, match="exceed the cap of 4096"):
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


def test_norm_equivalence_at_large_t():
    # the Sobolev weights overflow at t = 200 while the ratio does not, and
    # both weight families overflow at t = 2000: dividing the weights gave an
    # infinite ratio_max at t = 200 and nan constants at t = +-2000
    geo = TorusGeometry(1, 1, SCALAR)
    base = (1.0 + 4.0 * math.pi**2) / 2.0  # the ratio's base at |q| = 1
    for t in (200.0, -200.0):
        c = norm_equivalence_constants(geo, t)
        assert (c.ratio_min, c.ratio_max) == pytest.approx(sorted([1.0, base**t]), rel=1e-12)
        assert math.isfinite(c.upper) and c.lower_safe > 0.0
    # at |t| = 2000 the ratio itself overflows (t > 0) or underflows to 0 (t < 0)
    for t in (2000.0, -2000.0):
        with pytest.raises(HypothesisViolated, match="floating-point range"):
            norm_equivalence_constants(geo, t)


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


def test_regularity_refuses_a_t_whose_weights_overflow():
    # at t = 2000 both norms of the gain check overflow to inf, and
    # inf <= inf passed; no right-hand side is drawn before the refusal
    geo = TorusGeometry(1, 1, SCALAR)

    def rhs():
        raise AssertionError("right-hand side drawn before t was validated")
        yield

    with pytest.raises(HypothesisViolated, match="Sobolev index 2000 leaves the floating-point range"):
        regularity_reports(geo, 0, rhs(), t_values=(0.0, 2000.0))
    f = random_section(geo, 0, rng_for(6, "torus-reg-large-t", 0))
    assert regularity_report(geo, 0, f, t_values=(200.0,)).passed


def test_regularity_refuses_a_t_whose_weights_underflow():
    # at t = -2000 every nonzero mode's weight underflows to 0, so the
    # zero-mean solution read norm 0 and the gain check passed on the zero
    # mode's weight alone; no right-hand side is drawn before the refusal
    geo = TorusGeometry(1, 1, SCALAR)

    def rhs():
        raise AssertionError("right-hand side drawn before t was validated")
        yield

    for t in (-2000.0, -2002.0):  # the weights at t, then at t + 2, underflow
        with pytest.raises(HypothesisViolated, match=f"Sobolev index {t:g} .* underflows to 0"):
            regularity_reports(geo, 0, rhs(), t_values=(0.0, t))
    f = random_section(geo, 0, rng_for(6, "torus-reg-small-t", 0))
    reports = regularity_reports(geo, 0, [f])
    assert [g["t"] for g in reports[0].gains] == [-2.0, 0.0, 2.0] and reports[0].passed


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


def _no_grid(*args, **kwargs):
    raise AssertionError("grid points listed before the size was checked")


def test_embedding_grid_cap(monkeypatch):
    geo = TorusGeometry(3, 3, SCALAR)
    s = random_section(geo, 0, rng_for(6, "torus-grid-cap", 0))
    # np.meshgrid lists the points of an integer grid
    monkeypatch.setattr(np, "meshgrid", _no_grid)

    def no_phases(*args, **kwargs):
        raise AssertionError("phases computed before the size was checked")

    monkeypatch.setattr(torus, "_phase_matrix", no_phases)
    # default grid 24^3 points times 343 modes
    with pytest.raises(ValidationError, match="13824 grid points times 343 modes"):
        embedding_check(s, 4.0, (0, 0, 0))
    pts = np.zeros((torus.MAX_GRID_PHASES // geo.num_modes + 1, 3))
    with pytest.raises(ValidationError, match="exceed the cap"):
        embedding_check(s, 4.0, (0, 0, 0), grid=pts)
    # the patched functions are the ones that list the points and build the
    # phases: a grid under the cap reaches them, so the guards are not vacuous
    with pytest.raises(AssertionError, match="grid points listed"):
        embedding_check(s, 4.0, (0, 0, 0), grid=2)
    with pytest.raises(AssertionError, match="phases computed"):
        embedding_check(s, 4.0, (0, 0, 0), grid=np.zeros((2, 3)))


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


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    band=st.integers(0, 1),
    blocks=st.sampled_from([(1,), (2,), (1, 2)]),
    rank=st.integers(1, 2),
)
def test_harmonic_dims_match_assembled_oracle(n, band, blocks, rank):
    geo = TorusGeometry(n, band, ModuleSpec(AlgebraSpec(blocks), rank))
    cx = de_rham_complex(geo)
    reports = harmonic_rank_report(geo)
    assert [rep["harmonic_dim"] for rep in reports] == [
        cx.cohomology_report(k).harmonic_dim for k in range(n + 1)
    ]


@settings(max_examples=12, deadline=None)
@example(n=1, band=1, blocks_and_projection=((1,), (np.diag([1.0, 0.0]),)))
@given(
    n=st.integers(1, 2),
    band=st.integers(0, 1),
    blocks_and_projection=st.sampled_from([
        ((1,), (np.diag([1.0, 0.0]),)),
        ((2,), (np.diag([1.0, 0.0, 0.0, 1.0]),)),
        ((1, 2), (np.eye(2), np.diag([1.0, 1.0, 1.0, 0.0]))),
    ]),
)
def test_harmonic_dims_on_projective_fiber_match_assembled_oracle(n, band, blocks_and_projection):
    # the symbol maps must be cut down to the fiber's projection: without the
    # cut, TorusGeometry(1, 1, rank 2 over C with projection diag(1, 0))
    # reported harmonic dim -1 and a multiplier residual of 4 pi^2
    blocks, projection = blocks_and_projection
    fiber = ModuleSpec(AlgebraSpec(blocks), 2, projection=tuple(p.astype(complex) for p in projection))
    geo = TorusGeometry(n, band, fiber)
    cx = de_rham_complex(geo)
    reports = harmonic_rank_report(geo)
    dims = [cx.cohomology_report(k).harmonic_dim for k in range(n + 1)]
    assert [rep["harmonic_dim"] for rep in reports] == dims
    assert dims == [rep["expected_dim"] for rep in reports]
    for rep in reports:
        assert rep["passed"]
        assert rep["max_multiplier_residual"] < 1e-10


def test_harmonic_report_svd_count_does_not_grow_with_band(monkeypatch):
    svd = np.linalg.svd
    counts = []
    for band in (1, 3):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        harmonic_rank_report(TorusGeometry(2, band, ModuleSpec(AlgebraSpec((1, 2)), 1)))
        monkeypatch.undo()
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _report_mode_by_mode(geo, cutoff=1e-10):
    """harmonic_rank_report's measured fields from one ChainComplex per mode."""
    n, sizes = geo.dimension, geo.algebra.block_sizes
    fibers = [geo.form_fiber(k) for k in range(n + 1)]
    reports = [
        {
            "harmonic_dim": 0,
            "kernel_modes": [],
            "max_multiplier_residual": 0.0,
            "max_square_residual": 0.0,
            "free_rank": None,
        }
        for _ in fibers
    ]
    for q, lam in zip(geo.modes, geo.laplacian_values):
        coeffs = [de_rham_symbol_coeffs(n, k, q, geo.fiber.rank) for k in range(n)]
        maps = [
            Morphism(fibers[k], fibers[k + 1], _scalar_mats(c, sizes)) for k, c in enumerate(coeffs)
        ]
        # on a projective fiber each map is followed by its target's projection
        maps = [identity_morphism(t.target) @ t if t.target.projection is not None else t for t in maps]
        cx = ChainComplex(fibers, maps)
        for k, rep in enumerate(reports):
            lap = cx.laplacian(k)
            residual = (lap - lam * identity_morphism(fibers[k])).norm()
            rep["max_multiplier_residual"] = max(rep["max_multiplier_residual"], residual)
            if k + 1 < n:
                square = (maps[k + 1] @ maps[k]).norm()
                rep["max_square_residual"] = max(rep["max_square_residual"], square)
            nullity = fibers[k].concrete_dim - lap.concrete_rank(cutoff)
            if nullity:
                rep["kernel_modes"].append(tuple(int(x) for x in q))
                rep["harmonic_dim"] += nullity
            if lam == 0.0:
                rep["free_rank"] = free_rank_of_projection(cx.parametrix(k, cutoff).projector)
    return reports


def _assert_same_reports(got_reports, want_reports):
    for got, want in zip(got_reports, want_reports, strict=True):
        for key, value in want.items():
            assert got[key] == value
            if isinstance(value, float):
                assert np.float64(got[key]).tobytes() == np.float64(value).tobytes()


@settings(max_examples=20, deadline=None)
@given(
    n=st.integers(1, 3),
    band=st.integers(0, 2),
    blocks=st.sampled_from([(1,), (2,), (1, 2)]),
    rank=st.integers(0, 2),
    cutoff=st.sampled_from([1e-10, 2.0]),
)
def test_harmonic_report_equals_mode_by_mode(n, band, blocks, rank, cutoff):
    # the stacked report reads the same numbers, bit for bit, as a loop over
    # the modes with one complex each; a cutoff of 2 drops every singular
    # value, so every mode lands in the kernel and the free rank must still
    # come from the zero mode alone
    geo = TorusGeometry(n, band, ModuleSpec(AlgebraSpec(blocks), rank))
    _assert_same_reports(harmonic_rank_report(geo, cutoff), _report_mode_by_mode(geo, cutoff))


def test_harmonic_report_runs_of_modes_stay_within_budget(monkeypatch):
    # with the cap lowered, the modes go in runs whose stacks each hold at
    # most cap^2 entries, and the report does not change; the fiber is
    # projective, where the report must still read as one complex per mode
    fiber = ModuleSpec(AlgebraSpec((1, 2)), 2, projection=(np.eye(2), np.diag([1.0, 1, 1, 0])))
    geo = TorusGeometry(2, 1, fiber)
    want = harmonic_rank_report(geo)
    _assert_same_reports(want, _report_mode_by_mode(geo))
    sizes, laplacians = [], []
    for name in ("_scalar_mats", "laplacian_mats", "block_singular_values"):
        real = getattr(torus, name)

        def spy(*args, real=real, name=name):
            out = real(*args)
            sizes.extend(x.size for x in out)
            if name == "laplacian_mats":
                laplacians.append(out[0].shape[0])
            return out

        monkeypatch.setattr(torus, name, spy)
    monkeypatch.setattr(torus, "MAX_MODULE_DIM", 40)  # widest form fiber: 2 * 2 * 5 = 20
    got = harmonic_rank_report(geo)
    assert laplacians == [4] * 3 + [4] * 3 + [1] * 3  # 9 modes in runs of 40^2 // 20^2
    assert 0 < max(sizes) <= 40**2
    _assert_same_reports(got, want)


# -- the embedding and regularity suites as one stack --------------------------------


def _embedding_one_by_one(s, t, alpha):
    """embedding_check's figures from the per-section operations, one call each."""
    constant = derivative_bound_constant(s.geometry.dimension, t, alpha, radius=64 * max(1, s.geometry.band_limit))
    side = 8 * max(1, s.geometry.band_limit)
    pts = np.array(list(itertools.product(np.arange(side) / float(side), repeat=s.geometry.dimension)))
    return {
        "sup_grid": float(s.derivative(alpha).norm_at_points(pts).max()),
        "norm_t": fourier_norm(s, t),
        "constant": constant,
        "grid_points": len(pts),
    }


def _regularity_one_by_one(geo, f, t_values):
    """regularity_report's figures from laplace_solve, the multiplier and fourier_norm."""
    u, mean = laplace_solve(f)
    residual = fourier_norm(FourierMultiplier.laplacian(geo, f.degree).apply(u) - (f - mean), 0.0)
    qsq, lam = geo.mode_norms_sq, geo.laplacian_values
    gain = float(((1.0 + qsq[qsq > 0]) / lam[qsq > 0]).max()) if (qsq > 0).any() else 0.0
    norms = [(fourier_norm(u, t + 2.0), gain * fourier_norm(f, t)) for t in t_values]
    return residual, gain, norms


def _same_float(got, want):
    assert got == pytest.approx(want, rel=1e-15, abs=0.0)


_FIBERS = [
    ModuleSpec(AlgebraSpec((1,)), 1),
    ModuleSpec(AlgebraSpec((2,)), 1),
    ModuleSpec(AlgebraSpec((2, 1)), 2),
    ModuleSpec(AlgebraSpec((1,)), 2, projection=(np.diag([1.0, 0.0]),)),
    ModuleSpec(AlgebraSpec((2,)), 2, projection=(np.diag([1.0, 0.0, 0.0, 1.0]),)),
    ModuleSpec(AlgebraSpec((2, 1)), 1, projection=(np.diag([1.0, 0.0]), np.eye(1))),
]


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 3),
    band=st.integers(0, 2),
    fiber=st.sampled_from(_FIBERS),
    degree=st.integers(0, 1),
    count=st.integers(1, 5),
    orders=st.lists(st.integers(0, 2), min_size=1, max_size=3),
    seed=st.integers(0, 2**16),
)
def test_stacked_suites_equal_section_by_section(n, band, fiber, degree, count, orders, seed):
    # the stacked suites give, for every section and multi-index, the figures
    # of the per-section operations and of the one-section entry points
    geo = TorusGeometry(n, band, fiber)
    degree = min(degree, n)
    sections = [random_section(geo, degree, rng_for(seed, "torus-stacked", i)) for i in range(count)]
    alphas = [tuple(min(k, 1) if j < k else 0 for j in range(n)) if k <= n else (k,) + (0,) * (n - 1) for k in orders]
    t = n + 2.5
    stacked = embedding_checks(geo, degree, iter(sections), t, alphas)
    assert len(stacked) == count
    for s, per_alpha in zip(sections, stacked):
        assert [rep["alpha"] for rep in per_alpha] == alphas
        for alpha, rep in zip(alphas, per_alpha):
            assert rep == embedding_check(s, t, alpha)
            want = _embedding_one_by_one(s, t, alpha)
            for key, value in want.items():
                _same_float(rep[key], value)
            assert rep["bound"] == rep["constant"] * rep["norm_t"]
            assert rep["passed"] == (rep["sup_grid"] <= rep["bound"])
    t_values = (-2.0, 0.0, 2.0)
    reports = regularity_reports(geo, degree, iter(sections), t_values)
    assert len(reports) == count
    for f, rep in zip(sections, reports):
        assert rep == regularity_report(geo, degree, f, t_values)
        residual, gain, norms = _regularity_one_by_one(geo, f, t_values)
        _same_float(rep.solve_residual, residual)
        assert rep.gain_constant == gain
        for g, (lhs, rhs) in zip(rep.gains, norms):
            _same_float(g["norm_solution"], lhs)
            _same_float(g["norm_rhs"], rhs)


def _count_calls(monkeypatch, owner, name, calls):
    real = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)


@pytest.mark.parametrize("suite", ["embedding", "regularity"])
def test_suite_kernel_calls_do_not_grow_with_sections(monkeypatch, suite):
    # one phase matrix and one fiber-norm pass per stack, however many
    # sections; blocks of size 1 and 2 take their norms in closed form
    from cstarhodge.cli import main

    counts = []
    for sections in (4, 40):
        calls = {}
        _count_calls(monkeypatch, torus, "_fiber_norms_sq", calls)
        _count_calls(monkeypatch, np, "exp", calls)
        _count_calls(monkeypatch, np.linalg, "eigvalsh", calls)
        argv = ["torus-demo", "--n", "2", "--band", "1", "--fiber", "1x2,1", "--suite", suite,
                "--sections", str(sections), "--format", "json"]
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv) == 0
        monkeypatch.undo()
        counts.append(calls)
    assert counts[0] == counts[1]
    assert counts[0]["_fiber_norms_sq"] == (2 if suite == "embedding" else 1)
    assert counts[0].get("eigvalsh", 0) == 0


def _gram_oracle(stacks):
    """Largest eigenvalue of every fiber Gram, from eigvalsh, over the blocks."""
    lam = [np.linalg.eigvalsh(b @ b.conj().swapaxes(-1, -2))[..., -1] for b in stacks]
    return np.maximum(np.max(lam, axis=0), 0.0)


def _fiber_stack(rng, lead, nb, cols, kind):
    """A (*lead, nb, cols) stack of row matrices of the given kind."""
    def normal(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    if kind == "zero":
        return np.zeros((*lead, nb, cols), dtype=complex)
    if kind == "zero_row":  # the last row zero, the others random
        out = normal(*lead, nb, cols)
        out[..., -1, :] = 0.0
        return out
    if kind in ("lopsided", "subnormal"):
        # the rows below the first 1e-150 times smaller, or 1e-160 times,
        # where at scale 1 their squares are subnormal
        out = normal(*lead, nb, cols)
        out[..., 1:, :] *= 1e-150 if kind == "lopsided" else 1e-160
        return out
    if kind == "parallel":  # every row a multiple of one vector
        return normal(*lead, nb, 1) * normal(*lead, 1, cols)
    if kind == "orthogonal":  # row j holds i^j v in its own columns: equal norms, <u_j, u_k> = 0
        k = cols // nb
        out = np.zeros((*lead, nb, cols), dtype=complex)
        v = normal(*lead, k)
        for j in range(nb):
            out[..., j, j * k:(j + 1) * k] = 1j**j * v
        return out
    return normal(*lead, nb, cols)


@settings(max_examples=120, deadline=None)
@example(blocks=(2,), cols=4, kind="orthogonal", scale=1.0, seed=0)
@example(blocks=(2,), cols=6, kind="orthogonal", scale=1e150, seed=0)
@example(blocks=(1, 2, 3), cols=6, kind="parallel", scale=1e-150, seed=0)
@example(blocks=(2, 2), cols=0, kind="random", scale=1.0, seed=0)
@example(blocks=(2,), cols=4, kind="lopsided", scale=1e150, seed=0)  # rows at 1e150 against 1
@example(blocks=(1, 2), cols=4, kind="zero_row", scale=1.0, seed=0)
@example(blocks=(2,), cols=4, kind="zero", scale=1.0, seed=0)
@example(blocks=(2, 3), cols=6, kind="subnormal", scale=1.0, seed=0)
@given(
    blocks=st.lists(st.sampled_from([1, 2, 3]), min_size=1, max_size=3).map(tuple),
    cols=st.integers(0, 6),
    kind=st.sampled_from(["random", "zero", "zero_row", "parallel", "orthogonal", "lopsided", "subnormal"]),
    scale=st.sampled_from([1.0, 1e150, 1e-150]),
    seed=st.integers(0, 2**16),
)
def test_fiber_norms_match_eigvalsh_oracle(blocks, cols, kind, scale, seed):
    # the closed form for blocks of size 1 and 2 and eigvalsh for larger ones
    # agree with the Gram's largest eigenvalue to a few ulp, and stay finite
    # where it is: at scale 1e150 the Gram entries reach 1e300, where a
    # sqrt(h*h + |c|^2) would overflow.  The bound is the oracle's: against an
    # extended-precision reference the closed form stays within 2 eps, while
    # the Gram product and eigvalsh reach about 7.5 eps on rows of length 6
    rng = np.random.default_rng(seed)
    lead = (3, 2)
    stacks = [scale * _fiber_stack(rng, lead, nb, cols, kind) for nb in blocks]
    want = _gram_oracle(stacks)
    with mock.patch.object(np.linalg, "eigvalsh", wraps=np.linalg.eigvalsh) as eigvalsh:
        got = torus._fiber_norms_sq(stacks)
    assert eigvalsh.call_count == sum(nb > 2 for nb in blocks)
    assert got.shape == want.shape == lead
    assert np.isfinite(got[np.isfinite(want)]).all()
    assert np.all(np.abs(got - want) <= 8 * np.finfo(float).eps * want)


def test_fiber_norms_at_the_ends_of_the_float_range():
    # an entry of 1e200 overflows its row norm and the Gram: the norm is inf
    # there (a ratio over max(a, d) alone would read inf/inf = nan), and the
    # other fibers keep their finite values
    rng = np.random.default_rng(0)
    for nb in (1, 2):
        b = _fiber_stack(rng, (4,), nb, 4, "random")
        big = b.copy()
        big[1, -1, 2] = 1e200
        with np.errstate(over="ignore"):
            got = torus._fiber_norms_sq([big])
        assert got[1] == np.inf
        keep = [0, 2, 3]
        assert np.array_equal(got[keep], torus._fiber_norms_sq([b])[keep])
    # subnormal squares of dyadic entries, all exact: orthogonal rows give
    # max(a, d), and a zero Gram gives 0
    tiny = 2.0**-535
    b = np.array([[[tiny, 1j * tiny], [0.0, 0.0]],
                  [[tiny, 0.0], [0.0, 0.5j * tiny]],
                  [[0.0, 0.0], [0.0, 0.0]]])
    assert torus._fiber_norms_sq([b]).tolist() == [2.0**-1069, 2.0**-1070, 0.0]


def test_fiber_norms_allocate_less_than_the_stack():
    # on a stack of MAX_GRID_PHASES entries, the largest the suites pass, the
    # closed form's temporaries stay below 3/4 of the stack itself: a few
    # floats per fiber, no conjugate copy, no Gram, no per-part copies
    rng = np.random.default_rng(0)
    for nb in (1, 2):
        b = rng.standard_normal(2 * torus.MAX_GRID_PHASES).view(complex).reshape(-1, nb, nb)
        tracemalloc.start()
        try:
            torus._fiber_norms_sq([b])
            extra = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert extra <= 0.75 * b.nbytes


def test_phase_matrix_holds_one_float_copy_besides_the_result():
    # n = 2, band 4 on a 113^2 grid: the product is scaled in place and exp
    # overwrites the one complex array, so the peak is the 15.8 MiB result
    # and one float copy, not exp's input and output side by side (twice the
    # result); the values are 2j pi times the product bit for bit
    geo = TorusGeometry(2, 4, SCALAR)
    axis = np.arange(-56, 57) / 113
    pts = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    tracemalloc.start()
    try:
        got = torus._phase_matrix(geo, pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.shape == (113**2, 81)
    assert peak <= 1.55 * got.nbytes
    assert got.tobytes() == np.exp(2j * np.pi * (pts @ geo.modes.T)).tobytes()


def _demo_report(sections, suite="all"):
    from cstarhodge.cli import main

    out = io.StringIO()
    argv = ["torus-demo", "--n", "1", "--band", "1", "--fiber", "1x2", "--suite", suite,
            "--sections", str(sections), "--format", "json"]
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def test_suite_stacks_stay_within_budget(monkeypatch):
    # with the cap lowered the sections go in runs whose stacks each hold at
    # most cap entries per block, or one section when a single one holds more,
    # and the report does not change
    want = _demo_report(7)
    real = torus._fiber_norms_sq
    for cap, runs in ((128, (2, 3)), (24, (1, 1))):  # 8 grid points * 3 modes = 24
        stacks = []

        def spy(arrays):
            stacks.extend(arrays)
            return real(arrays)

        monkeypatch.setattr(torus, "_fiber_norms_sq", spy)
        monkeypatch.setattr(torus, "MAX_GRID_PHASES", cap)
        assert _demo_report(7) == want
        monkeypatch.undo()
        # per section: embedding values (2 alphas, 8 points, 2, 2), 64 entries,
        # and coefficients (3 modes, 2, 2); regularity (3, 3 modes, 2, 2), 36
        values = [a.shape[0] for a in stacks if a.ndim == 5 and a.shape[2:] == (8, 2, 2)]
        coeffs = [a.shape[0] for a in stacks if a.ndim == 4]
        solved = [a.shape[1] for a in stacks if a.ndim == 5 and a.shape[0] == 3]
        assert len(stacks) == len(values) + len(coeffs) + len(solved)
        for sizes, run in zip((values, solved), runs):
            assert sum(sizes) == 7 and max(sizes) == run
        assert coeffs == values
        if cap == 128:
            assert max(a.size for a in stacks) <= cap
