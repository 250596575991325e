"""Stacked parametrix and chain-map residuals against Morphism compositions.

Parametrix.residuals and verify_chain_map compute each identity on per-block
arrays, one values-only SVD per block for a whole degree or differential.
The oracles below are the composition formulas they replaced: each residual
a chain of Morphism products and sums followed by its own norm().  The
stacked values must equal them bit for bit, and a parametrix that does not
act on its module must still raise SpecMismatch.
"""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex, Parametrix, random_complex, verify_chain_map
from cstarhodge.errors import SpecMismatch
from cstarhodge.hom import Morphism, identity_morphism, random_morphism, singular_rank
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
        degrees.append(entry)
        worst = max(worst, *(v for key, v in entry.items() if key != "degree"))
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
            assert _bits(par.residuals()) == _bits(oracle_residuals(par))
        rep = verify_chain_map(cx, family, tol=1e-8)
        assert _bits(rep) == _bits(oracle_chain_map(cx, family, 1e-8))
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
    """3 SVDs per degree and block for the reports, 1 per differential and block for the chain map.

    A report takes the Laplacian's singular values, its pseudoinverse and
    the stacked residuals; the differentials' singular values were taken
    when the complex was built.  A block with no rows or no columns takes
    none of them.
    """
    alg = AlgebraSpec((1, 2))
    cx, plan = random_complex(rng_for(14, "svd-count", 1), algebra=alg)
    assert plan["module_ranks"] == [1, 3, 4, 3]  # no rank-0 module, whose blocks take no SVD
    blocks = len(alg.block_sizes)
    assert _hodge_svd_calls(cx, monkeypatch) == 3 * len(cx.modules) * blocks + len(cx.diffs) * blocks
    # A^2 -> A^0 -> A^2 with zero maps: degrees 0 and 2 take 3 per block, the
    # rank-0 degree and both differentials (every block empty) none
    mods = [ModuleSpec(alg, 2), ModuleSpec(alg, 0), ModuleSpec(alg, 2)]
    empty = ChainComplex(mods, [Morphism.zero(a, b) for a, b in zip(mods, mods[1:])])
    assert _hodge_svd_calls(empty, monkeypatch) == 12


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
