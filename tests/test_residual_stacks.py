"""Stacked parametrix and chain-map residuals against Morphism compositions.

Parametrix.residuals and verify_chain_map compute each identity on per-block
arrays, one stack for a whole degree or differential, normed by
hom.certified_norms.  The oracles below are the composition formulas they
replaced: each residual a chain of Morphism products and sums followed by
its own norm().  At tol = 0 every nonzero residual takes the exact path, so
the stacked values must equal the oracles bit for bit; at the default tol a
value may be a Frobenius bound, at least the oracle and at most
sqrt(min(rows, cols)) times it.  A parametrix that does not act on its
module must still raise SpecMismatch.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import PARAMETRIX_RESIDUALS, ChainComplex, Parametrix, random_complex, verify_chain_map
from cstarhodge.errors import SpecMismatch
from cstarhodge.hom import Morphism, _roundoff_factor, identity_morphism, random_morphism, singular_rank
from cstarhodge.module import ModuleSpec
from cstarhodge.util import rng_for
from test_diagnostics import _complexes as diagnostic_complexes
from test_hom import ORACLE_ALGEBRAS, _projective


def oracle_residuals(par):
    lap, g, p = par.laplacian, par.green, par.projector
    one = identity_morphism(lap.source)
    return {
        "green_laplacian_plus_projector": (g @ lap + p - one).norm(),
        "laplacian_green_plus_projector": (lap @ g + p - one).norm(),
        "laplacian_kills_projector": (lap @ p).norm(),
        "green_kills_projector": (g @ p).norm(),
        "projector_idempotent": (p @ p - p).norm(),
    }


def oracle_chain_map(cx, parametrices, tol):
    degrees = []
    worst = 0.0
    for i, d in enumerate(cx.diffs):
        low, high = parametrices[i], parametrices[i + 1]
        entry = {
            "degree": i,
            "projector_after_differential": (high.projector @ d).norm(),
            "green_commutes": (d @ low.green - high.green @ d).norm(),
            "laplacian_commutes": (d @ low.laplacian - high.laplacian @ d).norm(),
            "differential_after_projector": (d @ low.projector).norm(),
        }
        worst = max(worst, *(v for key, v in entry.items() if key != "degree"))
        # with tol = 0 no residual passes as a bound: each value is its operator norm
        entry["exact"] = {key: True for key in entry if key != "degree"}
        degrees.append(entry)
    return {"degrees": degrees, "max_residual": worst, "passed": worst <= tol}


def _bits(value):
    """A report with every float replaced by its exact hex form."""
    if isinstance(value, dict):
        return {k: _bits(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_bits(v) for v in value]
    return value.hex() if isinstance(value, float) else value


def _complexes(alg, rng):
    """Random, projective, zero-map and rank-0 complexes, then two of one module."""
    return [
        *diagnostic_complexes(alg, rng),
        ChainComplex([ModuleSpec(alg, 3)], []),
        ChainComplex([_projective(alg, 2, rng)], []),
    ]


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_residuals_are_bitwise_the_compositions(blocks):
    rng = rng_for(14, "residual-stacks", len(blocks) * 10 + blocks[-1])
    for cx in _complexes(AlgebraSpec(blocks), rng):
        family = cx.parametrix_family()
        for par in family:
            i = par.degree
            d_in, d_out = cx.differential(i - 1), cx.differential(i)
            # 1 minus the projections onto Rng D_{i-1} and Rng D_i*, from pseudoinverses
            want = identity_morphism(d_out.source) - d_in @ d_in.pseudoinverse() - d_out.pseudoinverse() @ d_out
            assert all(np.abs(a - b).max(initial=0.0) <= 1e-13 for a, b in zip(par.projector.mats, want.mats))
            values, exact = par.certified_residuals(tol=0.0)
            assert _bits(values) == _bits(oracle_residuals(par))
            assert all(exact.values())
        rep = verify_chain_map(cx, family, tol=0.0)
        assert _bits(rep) == _bits(oracle_chain_map(cx, family, 0.0))
        assert verify_chain_map(cx, family)["passed"]


def assert_gap_brackets_the_spectrum(cx, i):
    """cohomology_report(i)'s laplacian_gap against the shadow's eigenvalues.

    The rank p smallest eigenvalues of L lie at or below upper and the rest
    at or above lower, up to eigvalsh's own roundoff; the check's value is
    the nullity exactly where upper < lower.  A projective module's shadow
    adds one zero eigenvalue per dimension outside its projection.
    """
    rep = cx.cohomology_report(i)
    upper, lower = rep.laplacian_gap
    lap = cx.laplacian(i).embed()
    eigs = np.linalg.eigvalsh(lap) if lap.size else np.zeros(0)
    slack = 1e-13 * max(1.0, np.abs(eigs).max(initial=0.0))
    k = rep.harmonic_dim + lap.shape[0] - rep.module_dim
    assert eigs[:k].max(initial=-np.inf) <= upper + slack
    assert eigs[k:].min(initial=np.inf) >= lower * (1 - 1e-12) - slack
    assert rep.laplacian_nullity == (rep.harmonic_dim if upper < lower else None)
    assert rep.dims_match == (rep.laplacian_nullity == rep.cohomology_dim)
    return rep


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_laplacian_gap_brackets_the_spectrum(blocks):
    # the check "harmonic dim = cohomology dim" compares L's nullity,
    # certified by the residuals L p = 0 and g L + p = 1, with the rank
    # arithmetic; on these well-posed complexes the gap is wide and it holds
    rng = rng_for(19, "laplacian-gap", len(blocks) * 10 + blocks[-1])
    for cx in _complexes(AlgebraSpec(blocks), rng):
        for i in range(len(cx.modules)):
            rep = assert_gap_brackets_the_spectrum(cx, i)
            assert rep.dims_match


# the residuals that move when g alone is perturbed; perturbing p moves all five
MOVED_BY_GREEN = ("green_laplacian_plus_projector", "laplacian_green_plus_projector", "green_kills_projector")


def test_every_parametrix_residual_moves_with_g_or_p():
    # g and p are built separately from the differentials' kept triples, so
    # no identity holds by construction: g L + p = 1 read exactly 0 on every
    # input when p was 1 - g L.  Perturbing g alone, then p alone, by delta
    # times a unit Gaussian map must move every residual it enters.
    delta = 1e-6
    tested, nonzero = 0, 0
    for k in range(4):
        rng = rng_for(19, "parametrix-moves", k)
        cx, _ = random_complex(rng, algebra=AlgebraSpec((1, 2)))
        for par in cx.parametrix_family():
            mod = par.laplacian.source
            if par.laplacian.norm() == 0 or par.projector.norm() < 0.5:
                continue  # a zero L or p leaves some products zero whatever moves
            tested += 1
            base = par.certified_residuals(tol=0.0)[0]
            assert max(base.values()) < 1e-12
            nonzero += base["green_laplacian_plus_projector"] > 0
            e = random_morphism(mod, mod, rng)
            e = e * (1.0 / e.norm())
            for green, projector, moved in (
                (par.green + delta * e, par.projector, MOVED_BY_GREEN),
                (par.green, par.projector + delta * e, PARAMETRIX_RESIDUALS),
            ):
                values = Parametrix(par.degree, par.laplacian, green, projector).certified_residuals(tol=0.0)[0]
                for key in PARAMETRIX_RESIDUALS:
                    if key in moved:
                        assert values[key] > 1e-3 * delta, (key, values[key])
                    else:
                        assert values[key] == base[key]
    assert tested >= 4
    assert nonzero  # g L + p - 1 carries roundoff: it is computed, not cancelled


def _within_bound(value: float, oracle: float, mats) -> bool:
    """oracle <= value <= sqrt(min(rows, cols)) * oracle * roundoff, over the largest block."""
    rows, cols = max(r.shape[-2:] for r in mats)
    return oracle <= value <= math.sqrt(min(rows, cols)) * oracle * _roundoff_factor(rows, cols) ** 2


@pytest.mark.parametrize("blocks", ORACLE_ALGEBRAS)
def test_residuals_at_the_default_tol_bound_the_compositions(blocks):
    rng = rng_for(16, "residual-bounds", len(blocks) * 10 + blocks[-1])
    for cx in _complexes(AlgebraSpec(blocks), rng):
        family = cx.parametrix_family()
        for par in family:
            values, exact = par.certified_residuals()
            oracle = oracle_residuals(par)
            for key, value in values.items():
                assert _within_bound(value, oracle[key], par.laplacian.mats)
                assert exact[key] or value <= 1e-8
        rep = verify_chain_map(cx, family)
        for entry, want, d in zip(rep["degrees"], oracle_chain_map(cx, family, 1e-8)["degrees"], cx.diffs):
            for key, value in entry.items():
                if key not in ("degree", "exact"):
                    assert _within_bound(value, want[key], d.mats)
                    assert entry["exact"][key] or value <= 1e-8
        assert rep["passed"]


def test_a_parametrix_of_another_module_is_refused():
    alg = AlgebraSpec((1, 2))
    rng = rng_for(14, "residual-spec", 0)
    free = ModuleSpec(alg, 2)
    cx = ChainComplex([free, ModuleSpec(alg, 1)], [random_morphism(free, ModuleSpec(alg, 1), rng)])
    # the same rank, but a projective module: every product's shape fits
    other = ChainComplex([_projective(alg, 2, rng)], []).parametrix(0)
    own = cx.parametrix(0)
    for mixed in (
        Parametrix(0, own.laplacian, other.green, other.projector),
        Parametrix(0, other.laplacian, own.green, own.projector),
        Parametrix(0, own.laplacian, own.green, other.projector),
    ):
        with pytest.raises(SpecMismatch):
            mixed.residuals()
    with pytest.raises(SpecMismatch):
        verify_chain_map(cx, [other, cx.parametrix(1)])


def _hodge_svd_calls(cx, monkeypatch) -> int:
    """np.linalg.svd calls made by every degree's report and the chain-map check."""
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    for i in range(len(cx.modules)):
        cx.cohomology_report(i)
    verify_chain_map(cx, cx.parametrix_family())
    monkeypatch.undo()
    return len(calls)


def test_hodge_svd_count(monkeypatch):
    """One thin SVD per differential and block that keeps a value, for both of its degrees.

    A report builds g and p from the kept singular triples of the degree's
    two differentials, so no Laplacian is decomposed; the differentials'
    values-only spectra, which decide how many triples each block keeps,
    were taken when the complex was built.  The parametrix and chain-map
    residual stacks of a well-posed complex pass as Frobenius bounds, so
    they take no SVD.  Before, each report took the Laplacian's values-only
    spectrum and its pseudoinverse's full SVD: 2 per degree and block, 16
    here.
    """
    alg = AlgebraSpec((1, 2))
    cx, plan = random_complex(rng_for(14, "svd-count", 1), algebra=alg)
    assert plan["module_ranks"] == [1, 3, 4, 3]
    assert plan["differential_ranks"] == [1, 2, 0]  # D_2 = 0 keeps nothing and takes no SVD
    blocks = len(alg.block_sizes)
    assert _hodge_svd_calls(cx, monkeypatch) == 2 * blocks == 4
    # A^2 -> A^0 -> A^2 with zero maps: no differential keeps a value, and
    # every residual is exactly zero, which its zero bound certifies
    mods = [ModuleSpec(alg, 2), ModuleSpec(alg, 0), ModuleSpec(alg, 2)]
    empty = ChainComplex(mods, [Morphism.zero(a, b) for a, b in zip(mods, mods[1:])])
    assert _hodge_svd_calls(empty, monkeypatch) == 0


SUBNORMALS = [5e-324, 1e-320, 2.5e-310, 2.2250738585072009e-308]
spectra = st.lists(
    st.one_of(
        st.just(0.0),
        st.sampled_from(SUBNORMALS),
        st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True),
    ),
    max_size=12,
).map(lambda values: sorted(values, reverse=True))


@settings(max_examples=200, deadline=None)
@given(spectra, st.sampled_from([1e-10, 1e-3]))
@example([], 1e-10)
@example([0.0, 0.0], 1e-3)
@example([3.0, 1e-14, 0.0], 1e-10)
@example([5e-324], 1e-3)  # the threshold underflows to 0
@example([1e-320, 5e-324, 0.0], 1e-10)
@example([1e300, 5e-324], 1e-3)  # thresh / s overflows to inf
def test_singular_rank_of_one_spectrum_is_the_stacked_rule(values, cutoff):
    s = np.array(values, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # neither path warns, not even when a ratio reads inf
        rank, margin = singular_rank(s, cutoff)
        want_rank, want_margin = singular_rank(s[None, :], cutoff)
    assert type(rank) is int and type(margin) is float
    assert rank == int(want_rank[0])
    assert margin.hex() == float(want_margin[0]).hex()
