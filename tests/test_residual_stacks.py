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
from cstarhodge.chain import ChainComplex, Parametrix, random_complex, verify_chain_map
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
            one = identity_morphism(par.laplacian.source)
            want = one - par.green @ par.laplacian
            assert all(np.array_equal(a, b) for a, b in zip(par.projector.mats, want.mats))
            values, exact = par.certified_residuals(tol=0.0)
            assert _bits(values) == _bits(oracle_residuals(par))
            assert all(exact.values())
        rep = verify_chain_map(cx, family, tol=0.0)
        assert _bits(rep) == _bits(oracle_chain_map(cx, family, 0.0))
        assert verify_chain_map(cx, family)["passed"]


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
    """2 SVDs per degree and block for the reports, none for the residual stacks.

    A report takes the Laplacian's singular values and its pseudoinverse;
    the differentials' singular values were taken when the complex was
    built.  The parametrix and chain-map residual stacks of a well-posed
    complex pass as Frobenius bounds, so they take no SVD (they took one
    per degree and block and one per differential and block, 30 in all
    here, when every residual was an exact operator norm).  A block with no
    rows or no columns takes none.
    """
    alg = AlgebraSpec((1, 2))
    cx, plan = random_complex(rng_for(14, "svd-count", 1), algebra=alg)
    assert plan["module_ranks"] == [1, 3, 4, 3]  # no rank-0 module, whose blocks take no SVD
    blocks = len(alg.block_sizes)
    assert _hodge_svd_calls(cx, monkeypatch) == 2 * len(cx.modules) * blocks == 16
    # A^2 -> A^0 -> A^2 with zero maps: degrees 0 and 2 take 2 per block, the
    # rank-0 degree and both differentials (every block empty) none; every
    # residual is exactly zero, which its zero bound certifies without an SVD
    mods = [ModuleSpec(alg, 2), ModuleSpec(alg, 0), ModuleSpec(alg, 2)]
    empty = ChainComplex(mods, [Morphism.zero(a, b) for a, b in zip(mods, mods[1:])])
    assert _hodge_svd_calls(empty, monkeypatch) == 8


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
