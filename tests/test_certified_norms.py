"""hom.certified_norms against the exact operator norm, hom._largest_singular.

A value must never fall below the exact norm, it must be finite where the
norm is, it must decide value <= limit as the exact norm does, and every
map on the exact path must read _largest_singular's value bit for bit.  Stacks come with and without
leading axes, in unequal (also empty) blocks, with Gaussian, rank-1 and zero
entries at scales from subnormal to about 1e200.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from cstarhodge.hom import _largest_singular, certified_norms

SCALES = [1.0, 1e-310, 1e-160, 1e-150, 1e-8, 1e200, 1e154]
LEADS = [(), (1,), (3,), (2, 3)]
KINDS = ["gaussian", "rank1", "zero", "mixed"]
# limit = factor * the exact norm; nan marks limit inf
FACTORS = [0.0, 0.5, 1.0, 1.0 + 2.0**-52, 1.0 - 2.0**-53, 1.5, 10.0, float("nan")]


def _block(rng, lead, rows, cols, kind, scale):
    shape = lead + (rows, cols)
    if kind == "zero" or not rows or not cols:
        return np.zeros(shape, dtype=complex)
    if kind == "rank1":
        u = rng.standard_normal(lead + (rows, 1)) + 1j * rng.standard_normal(lead + (rows, 1))
        v = rng.standard_normal(lead + (1, cols)) + 1j * rng.standard_normal(lead + (1, cols))
        mat = u @ v
    else:
        mat = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "mixed":  # each map its own scale, some maps zero
        per_map = rng.choice(SCALES + [0.0], size=lead + (1, 1))
        return mat * per_map
    return mat * scale


stacks = st.tuples(
    st.integers(0, 2**32 - 1),
    st.sampled_from(LEADS),
    st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4)), min_size=1, max_size=3),
    st.sampled_from(KINDS),
    st.sampled_from(SCALES),
    st.sampled_from(FACTORS),
    st.booleans(),
)


@settings(max_examples=300, deadline=None)
@given(stacks)
@example((1, (), [(2, 2)], "rank1", 1.0, 1.0, False))
@example((2, (3,), [(1, 1), (2, 4)], "gaussian", 1e-310, 10.0, False))
@example((3, (2, 3), [(3, 3)], "gaussian", 1e200, 10.0, False))
@example((4, (3,), [(2, 2), (0, 3)], "zero", 1.0, 0.0, False))
@example((5, (3,), [(4, 4), (2, 2)], "mixed", 1.0, 1.0, True))
@example((6, (), [(3, 2)], "gaussian", 1e-160, 10.0, False))
@example((7, (3,), [(3, 3)], "gaussian", 1e200, float("nan"), True))  # inf bound, inf limit
def test_certified_norms_decide_as_the_operator_norm(case):
    seed, lead, dims, kind, scale, factor, per_map_limit = case
    rng = np.random.default_rng(seed)
    mats = [_block(rng, lead, rows, cols, kind, scale) for rows, cols in dims]
    norm = _largest_singular(mats)
    if np.isnan(factor):
        limit = np.full(lead, np.inf)
    else:
        limit = factor * norm
    if not per_map_limit:  # one limit for the whole stack
        limit = float(np.max(limit)) if limit.size else 1.0
    with np.errstate(over="ignore"):  # a 1e200 stack's squares overflow to inf
        values, exact = certified_norms(mats, limit)
    assert values.shape == exact.shape == lead
    assert np.all(values >= norm)
    assert np.array_equal(np.isfinite(values), np.isfinite(norm))  # an overflowed bound is replaced
    assert np.array_equal(values <= limit, norm <= limit)
    assert np.array_equal(values[exact].view(np.int64), norm[exact].view(np.int64))
    if lead:  # the exact path on a sub-stack gives the full stack's bits
        assert np.array_equal(values[exact], _largest_singular(mats)[exact])


def test_a_passing_bound_takes_no_svd(monkeypatch):
    rng = np.random.default_rng(7)
    mats = [rng.standard_normal((5, 3, 3)) + 0j, rng.standard_normal((5, 6, 6)) + 0j]
    exact_values = _largest_singular(mats)

    def no_svd(*args, **kwargs):
        raise AssertionError("an SVD ran on a stack whose bounds pass")

    monkeypatch.setattr(np.linalg, "svd", no_svd)
    values, exact = certified_norms(mats, 10.0 * exact_values.max() * np.sqrt(6))
    assert not exact.any()
    assert np.all(values >= exact_values)


def test_underflowed_squares_take_the_exact_path():
    tiny = np.full((2, 2), 1e-170 + 1e-170j)  # every square underflows to 0
    values, exact = certified_norms([tiny], 1.0)
    assert exact and values > 0
    assert values.view(np.int64) == _largest_singular([tiny]).view(np.int64)
    zero = np.zeros((2, 2), dtype=complex)
    values, exact = certified_norms([zero], 1.0)
    assert exact and values == 0.0
