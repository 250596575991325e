import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarhodge.algebra import AlgebraSpec
from cstarhodge.errors import (
    DegreeMismatch,
    EmptySampleSet,
    NotAComplex,
    ProjectionLeak,
    SpecMismatch,
    ZeroCoefficient,
)
from cstarhodge.hom import Morphism
from cstarhodge.module import ModuleSpec
from cstarhodge import symbol
from cstarhodge.symbol import (
    ExactnessResult,
    SampleSet,
    de_rham_symbol_sample,
    elliptic_scan,
    exactness_check,
    exterior_basis,
    random_degenerate_sample,
    random_exact_sample,
    symbol_laplacian,
    wedge_matrix,
    weighted_symbol_laplacian_check,
)
from cstarhodge.util import rng_for


def test_exterior_basis_counts():
    for n in range(1, 5):
        for k in range(n + 1):
            assert len(exterior_basis(n, k)) == math.comb(n, k)


def test_wedge_square_zero():
    rng = rng_for(5, "symbol-wedge", 0)
    for n in (2, 3, 4):
        xi = rng.standard_normal(n)
        for k in range(n - 1):
            w1 = wedge_matrix(n, k, xi)
            w2 = wedge_matrix(n, k + 1, xi)
            assert np.abs(w2 @ w1).max() < 1e-14


def _wedge_oracle(n: int, k: int, xi) -> np.ndarray:
    """wedge_matrix as built from a fresh basis, dict and term list on every call."""
    xi = np.asarray(xi, dtype=complex)
    src = exterior_basis(n, k)
    tgt = {s: a for a, s in enumerate(exterior_basis(n, k + 1))}
    terms = [
        (tgt[tuple(sorted(subset + (j,)))], b, j, (-1) ** sum(1 for x in subset if x < j))
        for b, subset in enumerate(src)
        for j in range(n)
        if j not in subset
    ]
    out = np.zeros(xi.shape[:-1] + (len(tgt), len(src)), dtype=complex)
    if terms:
        rows, cols, js, signs = (list(t) for t in zip(*terms))
        out[..., rows, cols] += np.array(signs) * xi[..., js]
    return out


def test_wedge_matrix_matches_the_per_call_construction():
    # bit for bit, signed zeros included, for every degree up to k = n (no
    # (n+1)-forms, no rows), single and stacked, real and complex covectors
    rng = rng_for(5, "symbol-wedge-oracle", 0)
    for n in range(1, 6):
        for k in range(n + 1):
            covectors = [
                rng.standard_normal(n),
                -np.zeros(n),
                rng.standard_normal((3, 2, n)),
                rng.standard_normal((4, 2 * n)).view(complex),
            ]
            for xi in covectors:
                got, want = wedge_matrix(n, k, xi), _wedge_oracle(n, k, xi)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
            shape, terms = symbol._wedge_terms(n, k)
            assert shape == (math.comb(n, k + 1), math.comb(n, k))
            assert len(terms) == (4 if k < n else 0)
            assert not any(t.flags.writeable for t in terms)
    with pytest.raises(ValueError, match="read-only"):
        symbol._wedge_terms(3, 1)[1][0][0] = 0


def test_wedge_signs_n2():
    # e0 wedge e1 = -(e1 wedge e0) on 1-forms of the plane
    w = wedge_matrix(2, 1, np.array([1.0, 0.0]))  # xi = e0 acting on {e0, e1}
    v = wedge_matrix(2, 1, np.array([0.0, 1.0]))
    assert w[0, 1] == 1.0 and w[0, 0] == 0.0
    assert v[0, 0] == -1.0 and v[0, 1] == 0.0


def test_derham_sample_margin_is_4pi2():
    fiber = ModuleSpec(AlgebraSpec((2,)), 1)
    for n in (2, 3):
        xi = np.zeros(n)
        xi[0] = 1.0
        sample = de_rham_symbol_sample(n, fiber, xi)
        for i in range(n + 1):
            lap = symbol_laplacian(sample, i)
            svals = lap.singular_values()
            dim = sample.fibers[i].concrete_dim
            assert abs(svals[0] - 4 * math.pi**2) < 1e-9
            assert abs(svals[dim - 1] - 4 * math.pi**2) < 1e-9
            r = exactness_check(sample, i)
            assert r.exact
            assert abs(r.spectral_margin - 4 * math.pi**2) < 1e-9


def test_derham_scan_verdict():
    fiber = ModuleSpec(AlgebraSpec((1,)), 1)
    rng = rng_for(5, "symbol-scan", 0)
    samples = []
    for j in range(8):
        xi = rng.standard_normal(2)
        xi /= np.linalg.norm(xi)
        samples.append(de_rham_symbol_sample(2, fiber, xi, tag=f"unit{j}"))
    cert = elliptic_scan(samples)
    assert cert.verdict == "elliptic"
    assert abs(cert.min_spectral_margin - 4 * math.pi**2) < 1e-9


def test_derham_scan_on_projective_fiber_is_elliptic():
    # each symbol map must be cut down to its target fiber's projection:
    # without the cut, kron(c, I) acts on the whole free module and the scan
    # read outgoing nullity -1 at degree 0 and the verdict inconclusive
    fiber = ModuleSpec(AlgebraSpec((1,)), 2, projection=(np.diag([1.0, 0.0]),))
    cert = elliptic_scan([de_rham_symbol_sample(2, fiber, xi) for xi in np.eye(2)])
    assert cert.verdict == "elliptic"
    for rec in cert.records:
        assert [d.outgoing_nullity for d in rec["degrees"]] == [0, 1, 1]
        assert all(d.exact for d in rec["degrees"])


def test_zero_covector_not_elliptic():
    fiber = ModuleSpec(AlgebraSpec((1,)), 1)
    cert = elliptic_scan([de_rham_symbol_sample(2, fiber, np.zeros(2), tag="zero")])
    assert cert.verdict == "not-elliptic"


def test_generated_exact_samples():
    for k in range(30):
        rng = rng_for(5, "symbol-exact", k)
        sample, plan = random_exact_sample(rng)
        r = exactness_check(sample, 1)
        assert r.exact
        assert r.spectral_margin > 0.2
        assert r.decision_margin > 10.0


def test_generated_degenerate_samples():
    for k in range(30):
        rng = rng_for(5, "symbol-degen", k)
        sample, plan = random_degenerate_sample(rng)
        r = exactness_check(sample, 1)
        assert not r.exact
        assert r.spectral_margin < 1e-10
    cert = elliptic_scan([sample])
    assert cert.verdict == "not-elliptic"


def test_weighted_laplacian():
    rng = rng_for(5, "symbol-weighted", 0)
    sample, _ = random_exact_sample(rng)
    for k in range(10):
        wrng = rng_for(5, "symbol-weights", k)
        lam = wrng.standard_normal() + 1j * wrng.standard_normal()
        mu = wrng.standard_normal() + 1j * wrng.standard_normal()
        rep = weighted_symbol_laplacian_check(sample, 1, lam, mu)
        assert rep["invertible"]
        assert rep["min_singular"] > 1e-8 * max(1.0, rep["scale"])
    with pytest.raises(ZeroCoefficient):
        weighted_symbol_laplacian_check(sample, 1, 0.0, 1.0)
    with pytest.raises(ZeroCoefficient):
        weighted_symbol_laplacian_check(sample, 1, 1.0, 0.0)


def test_weighted_laplacian_on_the_zero_module_is_invertible():
    # U = A^2 -> 0 -> A over (1, 2) with zero maps: degree 1 is the zero
    # module, where every operator is invertible; the weighted check agrees
    # with exactness_check and elliptic_scan there (rank 0 >= dimension 0)
    alg = AlgebraSpec((1, 2))
    mods = [ModuleSpec(alg, r) for r in (2, 0, 1)]
    sample = symbol.SymbolSample("zero", mods, [Morphism.zero(a, b) for a, b in zip(mods, mods[1:])])
    rep = weighted_symbol_laplacian_check(sample, 1, 1.0, -2.0j)
    assert rep["invertible"]
    assert rep["min_singular"] == math.inf and rep["scale"] == 0.0
    assert exactness_check(sample, 1).exact
    assert elliptic_scan([sample]).records[0]["degrees"][1].exact
    # a nonzero module under zero maps is not
    assert not weighted_symbol_laplacian_check(sample, 0, 1.0, 1.0)["invertible"]


def test_empty_scan_rejected():
    with pytest.raises(EmptySampleSet):
        elliptic_scan([])


def test_certificate_scope_note():
    fiber = ModuleSpec(AlgebraSpec((1,)), 1)
    cert = elliptic_scan([de_rham_symbol_sample(1, fiber, np.ones(1), tag="e")])
    assert any("sampled" in n for n in cert.notes)


def _same_bits(a, b):
    """Two ExactnessResults equal, their floats bit for bit."""
    return a == b and all(
        np.float64(x).tobytes() == np.float64(y).tobytes()
        for x, y in zip(vars(a).values(), vars(b).values())
        if isinstance(x, float)
    )


def _exactness_by_maps(sample, i, cutoff=1e-10):
    """The per-sample reference: rank cuts of the sample's own maps and Laplacian."""
    rank_in, margin_in = sample.chain.differential(i - 1).rank_with_margin(cutoff)
    rank_out, margin_out = sample.chain.differential(i).rank_with_margin(cutoff)
    s = sample.chain.laplacian(i).singular_values()
    dim = sample.fibers[i].concrete_dim
    return ExactnessResult(
        i,
        rank_in == dim - rank_out,
        rank_in,
        dim - rank_out,
        min(margin_in, margin_out),
        float(s[dim - 1]) if dim else float("inf"),
        float(s[0]) if s.size else 0.0,
    )


def _mixed_samples(seed, count):
    """Exact, degenerate and de Rham samples of several fiber shapes."""
    out = []
    for j in range(count):
        rng = rng_for(seed, "symbol-mixed", j)
        kind = j % 4
        if kind == 0:
            out.append(random_exact_sample(rng, algebra=AlgebraSpec((1, 2)), max_rank=2)[0])
        elif kind == 1:
            out.append(random_degenerate_sample(rng, algebra=AlgebraSpec((1, 2)), max_rank=2)[0])
        else:
            n = 2 + kind % 2
            xi = rng.standard_normal(n) * (rng.random() < 0.8)
            out.append(de_rham_symbol_sample(n, ModuleSpec(AlgebraSpec((2,)), 1), xi, tag=f"d{j}"))
    return out


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    count=st.integers(1, 12),
    order=st.randoms(use_true_random=False),
)
def test_scan_records_equal_single_sample_checks(seed, count, order):
    # the stacked scan groups samples by fibers; records keep the input order
    # and each equals exactness_check on that sample alone and the reference
    # built from the sample's own maps
    samples = _mixed_samples(seed, count)
    order.shuffle(samples)
    cert = elliptic_scan(samples)
    assert [rec["tag"] for rec in cert.records] == [s.tag for s in samples]
    for sample, rec in zip(samples, cert.records):
        degrees = range(sample.top_degree + 1)
        alone = [exactness_check(sample, i) for i in degrees]
        by_maps = [_exactness_by_maps(sample, i) for i in degrees]
        assert len(rec["degrees"]) == len(alone)
        assert all(_same_bits(a, b) for a, b in zip(rec["degrees"], alone))
        assert all(_same_bits(a, b) for a, b in zip(rec["degrees"], by_maps))


def _count_svds(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting)
    return calls


def test_scan_svd_count_does_not_grow_with_samples(monkeypatch):
    fiber = ModuleSpec(AlgebraSpec((1, 2)), 1)
    rng = rng_for(5, "symbol-svd-count", 0)
    samples = [de_rham_symbol_sample(3, fiber, rng.standard_normal(3)) for _ in range(64)]
    counts = []
    for size in (4, 64):
        calls = _count_svds(monkeypatch)
        elliptic_scan(samples[:size])
        counts.append(len(calls))
        monkeypatch.undo()
    assert counts[0] == counts[1] > 0


def test_exactness_check_is_the_one_sample_scan(monkeypatch):
    sample, _ = random_exact_sample(rng_for(5, "symbol-one", 0))
    seen = []
    rows = symbol._exactness_rows

    def spy(samples, degrees, cutoff):
        seen.append((len(samples), list(degrees)))
        return rows(samples, degrees, cutoff)

    monkeypatch.setattr(symbol, "_exactness_rows", spy)
    exactness_check(sample, 1)
    elliptic_scan([sample, sample])
    assert seen == [(1, [1]), (2, [0, 1, 2])]


def _derham_set(count, fiber=None, seed=0):
    fiber = fiber or ModuleSpec(AlgebraSpec((1, 2)), 1)
    rng = rng_for(5, "symbol-set", seed)
    samples = [de_rham_symbol_sample(2, fiber, xi, tag=f"s{j}") for j, xi in enumerate(rng.standard_normal((count, 2)))]
    return samples, SampleSet.of(samples)


def test_scan_of_a_set_equals_scan_of_its_samples():
    samples, sset = _derham_set(6)
    assert len(sset) == 6 and sset.tags == [s.tag for s in samples]
    assert all(not r.flags.writeable for st in sset.maps for r in st)
    a, b = elliptic_scan(samples), elliptic_scan(sset)
    assert a.verdict == b.verdict == "elliptic" and a.samples == b.samples == 6
    for ra, rb in zip(a.records, b.records, strict=True):
        assert ra["tag"] == rb["tag"]
        assert all(_same_bits(x, y) for x, y in zip(ra["degrees"], rb["degrees"], strict=True))


def test_sample_set_rejects_bad_shapes():
    samples, sset = _derham_set(3)
    with pytest.raises(EmptySampleSet):
        SampleSet([], sset.fibers, [[r[:0] for r in st] for st in sset.maps])
    with pytest.raises(DegreeMismatch):
        SampleSet(sset.tags, sset.fibers, sset.maps[:1])
    with pytest.raises(SpecMismatch):
        SampleSet(sset.tags[:2], sset.fibers, sset.maps)
    with pytest.raises(SpecMismatch):
        SampleSet.of([samples[0], random_exact_sample(rng_for(5, "symbol-other", 0))[0]])


def test_sample_set_names_the_first_failing_sample():
    # sample 1 does not square to zero and sample 3 leaks outside a projective
    # fiber: the error names whichever comes first
    fiber = ModuleSpec(AlgebraSpec((1,)), 2, projection=(np.diag([1.0, 0.0]),))
    _, sset = _derham_set(5, fiber)

    def broken(square_at, leak_at):
        maps = [[np.array(r) for r in st] for st in sset.maps]
        p1, p2 = (f.projection[0] for f in sset.fibers[1:])
        maps[1][0][square_at] += p1 @ np.ones((len(p1), len(p2))) @ p2
        maps[0][0][leak_at, :, 1] = 1.0  # outside diag(1, 0) in the target's first slot
        return SampleSet(sset.tags, sset.fibers, maps)

    with pytest.raises(NotAComplex) as err:
        broken(1, 3)
    assert err.value.index == 1
    with pytest.raises(ProjectionLeak) as err:
        broken(3, 1)
    assert (err.value.index, err.value.degree) == (1, 0)
