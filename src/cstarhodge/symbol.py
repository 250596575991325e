"""Symbol sequences and pointwise ellipticity certificates.

A symbol sample is a finite complex of module maps over the algebra,
recorded at one covector (the tag says which).  For each degree the scan
decides exactness of the sample by rank arithmetic, forms the symbol
Laplacian

    S_i = s_{i-1} s_{i-1}* + s_i* s_i

and measures how invertible it is.  Exactness of the sequence at a sample is
equivalent to invertibility of every S_i there, and the weighted variants
lam * s_i* s_i + mu * s_{i-1} s_{i-1}* stay invertible for any nonzero
weights; the scan verifies both directions with explicit margins.  A
certificate only speaks for the sampled covectors.

The module also builds the exterior-algebra symbols of the de Rham complex:
at covector xi the degree-k map is wedging with 2*pi*i*xi, and the symbol
Laplacian collapses to (2*pi*|xi|)^2 times the identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec
from .chain import ChainComplex, _pick_algebra, _shift_morphism, random_unitary_morphism
from .errors import EmptySampleSet, IndexOutOfRange, ZeroCoefficient
from .hom import Morphism, singular_rank
from .module import ModuleSpec

__all__ = [
    "SymbolSample",
    "ExactnessResult",
    "EllipticityCertificate",
    "exactness_check",
    "symbol_laplacian",
    "weighted_symbol_laplacian_check",
    "elliptic_scan",
    "exterior_basis",
    "wedge_matrix",
    "form_fiber",
    "tiled_module",
    "de_rham_symbol_coeffs",
    "de_rham_symbol_sample",
    "random_exact_sample",
    "random_degenerate_sample",
]


# -- exterior algebra helpers -----------------------------------------------------


def exterior_basis(n: int, k: int) -> list:
    """Sorted k-subsets of {0..n-1}, the standard basis of the k-forms."""
    return list(combinations(range(n), k))


def wedge_matrix(n: int, k: int, xi) -> np.ndarray:
    """Matrix of (xi wedge .) from k-forms to (k+1)-forms.

    e_j wedge e_S = (-1)^{#(elements of S below j)} e_{S union j} for j not in S.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape != (n,):
        raise ValueError(f"covector of shape {xi.shape}, expected ({n},)")
    src = exterior_basis(n, k)
    tgt = {s: a for a, s in enumerate(exterior_basis(n, k + 1))}
    out = np.zeros((len(tgt), len(src)), dtype=complex)
    for b, subset in enumerate(src):
        for j in range(n):
            if j in subset:
                continue
            sign = (-1) ** sum(1 for x in subset if x < j)
            out[tgt[tuple(sorted(subset + (j,)))], b] += sign * xi[j]
    return out


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kron(x, y), written as an einsum so that every zero entry is +0.0."""
    (a, b), (c, d) = x.shape, y.shape
    return np.einsum("ij,ab->iajb", x, y).reshape(a * c, b * d)


def tiled_module(module: ModuleSpec, copies: int) -> ModuleSpec:
    """Direct sum of copies of a module: projection kron(I_copies, P_b) per block."""
    if module.projection is None:
        return ModuleSpec(module.algebra, copies * module.rank)
    return ModuleSpec(
        module.algebra,
        copies * module.rank,
        projection=tuple(_kron(np.eye(copies), p) for p in module.projection),
    )


def form_fiber(fiber: ModuleSpec, n: int, k: int) -> ModuleSpec:
    """Fiber module of k-forms: one copy of the fiber per exterior basis slot."""
    return tiled_module(fiber, len(exterior_basis(n, k)))


def _scalar_morphism(source: ModuleSpec, target: ModuleSpec, coeffs: np.ndarray) -> Morphism:
    """Morphism whose entries are scalar multiples of the algebra unit: R_b = kron(c, I_nb)."""
    coeffs = np.asarray(coeffs, dtype=complex)
    return Morphism(
        source, target, [_kron(coeffs, np.eye(nb)) for nb in source.algebra.block_sizes]
    )


def de_rham_symbol_coeffs(n: int, k: int, xi, rank: int) -> np.ndarray:
    """Scalar matrix of the degree-k de Rham symbol at xi on a fiber of that rank.

    It is 2*pi*i kron(wedge_matrix(n, k, xi)^T, I_rank), with rows indexing
    the k-form slots (the source) as every module map matrix does.
    """
    w = wedge_matrix(n, k, np.asarray(xi, dtype=float))
    return 2j * np.pi * _kron(w.T, np.eye(rank))


def de_rham_symbol_sample(n: int, fiber: ModuleSpec, xi, tag: Optional[str] = None) -> "SymbolSample":
    """Symbol complex of the de Rham operator at covector xi: wedge by 2*pi*i*xi."""
    xi = np.asarray(xi, dtype=float)
    fibers = [form_fiber(fiber, n, k) for k in range(n + 1)]
    maps = [
        _scalar_morphism(fibers[k], fibers[k + 1], de_rham_symbol_coeffs(n, k, xi, fiber.rank))
        for k in range(n)
    ]
    if tag is None:
        tag = "xi=" + ",".join(format(x, ".6g") for x in xi)
    return SymbolSample(tag, fibers, maps)


# -- samples and checks -------------------------------------------------------------


class SymbolSample:
    """One covector's symbol sequence, stored as a chain complex."""

    def __init__(self, tag: str, fibers, maps, tol: float = 1e-9):
        self.tag = str(tag)
        self.chain = ChainComplex(list(fibers), list(maps), tol=tol)

    @property
    def fibers(self):
        return self.chain.modules

    @property
    def maps(self):
        return self.chain.diffs

    @property
    def top_degree(self) -> int:
        return self.chain.top_degree

    def __repr__(self):
        ranks = [m.rank for m in self.fibers]
        return f"SymbolSample({self.tag!r}, ranks={ranks})"


@dataclass(frozen=True)
class ExactnessResult:
    degree: int
    exact: bool
    incoming_rank: int
    outgoing_nullity: int
    decision_margin: float
    spectral_margin: float
    spectral_scale: float


def _restricted_min_singular(op: Morphism, cutoff: float) -> tuple:
    """(smallest singular value on the module, largest) for a self-map.

    With a projective module the shadow is padded by an exact zero block, so
    the relevant smallest value is the concrete_dim-th largest one.
    """
    dim = op.source.concrete_dim
    s = op.singular_values()
    smax = float(s[0]) if s.size else 0.0
    if dim == 0:
        return float("inf"), smax
    return float(s[dim - 1]), smax


def symbol_laplacian(sample: SymbolSample, i: int) -> Morphism:
    return sample.chain.laplacian(i)


def exactness_check(sample: SymbolSample, i: int, cutoff: float = 1e-10) -> ExactnessResult:
    """Decide Rng s_{i-1} = Ker s_i by rank arithmetic with margins.

    The complex property gives the containment, so exactness reduces to the
    dimension count rank(s_{i-1}) = dim Ker(s_i).  decision_margin is the
    factor by which the singular spectra clear the rank cutoff (small values
    mean the decision is fragile); spectral_margin is the smallest singular
    value of the symbol Laplacian on the module, which is positive exactly
    when the sample is exact at this degree.
    """
    if not 0 <= i <= sample.top_degree:
        raise IndexOutOfRange(f"degree {i} outside 0..{sample.top_degree}")
    s_in = sample.chain.differential(i - 1)
    s_out = sample.chain.differential(i)
    rank_in, margin_in = s_in.rank_with_margin(cutoff)
    rank_out, margin_out = s_out.rank_with_margin(cutoff)
    mod_dim = sample.fibers[i].concrete_dim
    nullity_out = mod_dim - rank_out
    smin, smax = _restricted_min_singular(symbol_laplacian(sample, i), cutoff)
    return ExactnessResult(
        degree=i,
        exact=rank_in == nullity_out,
        incoming_rank=rank_in,
        outgoing_nullity=nullity_out,
        decision_margin=min(margin_in, margin_out),
        spectral_margin=smin,
        spectral_scale=smax,
    )


def weighted_symbol_laplacian_check(
    sample: SymbolSample, i: int, lam: complex, mu: complex, cutoff: float = 1e-10
) -> dict:
    """Invertibility of lam * s_i* s_i + mu * s_{i-1} s_{i-1}* on degree i.

    Both weights must be nonzero; at an exact degree the two summands are
    invertible on complementary orthogonal ranges, so the weighted sum is an
    automorphism for every nonzero pair.
    """
    lam, mu = complex(lam), complex(mu)
    if lam == 0 or mu == 0:
        raise ZeroCoefficient("weights must both be nonzero")
    s_in = sample.chain.differential(i - 1)
    s_out = sample.chain.differential(i)
    op = lam * (s_out.adjoint() @ s_out) + mu * (s_in @ s_in.adjoint())
    smin, smax = _restricted_min_singular(op, cutoff)
    return {
        "degree": i,
        "lam": lam,
        "mu": mu,
        "min_singular": smin,
        "scale": smax,
        "invertible": smax > 0 and smin > cutoff * smax,
    }


@dataclass(frozen=True)
class EllipticityCertificate:
    verdict: str
    samples: int
    min_spectral_margin: float
    min_decision_margin: float
    cutoff: float
    records: list
    notes: tuple = field(default_factory=tuple)

    @property
    def elliptic(self) -> bool:
        return self.verdict == "elliptic"


def elliptic_scan(samples, cutoff: float = 1e-10) -> EllipticityCertificate:
    """Aggregate exactness over a sample set into one verdict.

    elliptic: every degree of every sample exact, all margins decisive.
    not-elliptic: some degree decisively non-exact.
    inconclusive: a rank decision or an invertibility margin sits within a
    factor 10 of the cutoff, so the verdict would not survive a perturbation.
    """
    samples = list(samples)
    if not samples:
        raise EmptySampleSet("no symbol samples to scan")
    all_degrees = [
        [exactness_check(s, i, cutoff) for i in range(s.top_degree + 1)] for s in samples
    ]

    min_spectral = float("inf")
    min_decision = float("inf")
    any_nonexact = False
    fragile = False
    records = []
    for sample, degrees in zip(samples, all_degrees):
        rec = {"tag": sample.tag, "degrees": degrees}
        records.append(rec)
        for r in degrees:
            min_decision = min(min_decision, r.decision_margin)
            if r.spectral_scale > 0:
                rel = r.spectral_margin / (cutoff * r.spectral_scale)
            else:
                # zero Laplacian: invertible only on the zero module
                rel = float("inf") if r.exact else 0.0
            if r.exact:
                min_spectral = min(min_spectral, r.spectral_margin)
                # exactness must force invertibility; a bare pass is fragile
                if rel <= 10.0:
                    fragile = True
            else:
                any_nonexact = True
                if rel > 0.1:
                    fragile = True
            if r.decision_margin <= 10.0:
                fragile = True

    if any_nonexact:
        verdict = "inconclusive" if fragile else "not-elliptic"
    elif fragile:
        verdict = "inconclusive"
    else:
        verdict = "elliptic"
    return EllipticityCertificate(
        verdict=verdict,
        samples=len(samples),
        min_spectral_margin=min_spectral,
        min_decision_margin=min_decision,
        cutoff=cutoff,
        records=records,
        notes=("certificate covers the sampled covectors only",),
    )


# -- generators ----------------------------------------------------------------------


def random_exact_sample(
    rng: np.random.Generator,
    algebra: Optional[AlgebraSpec] = None,
    max_rank: int = 4,
    tag: Optional[str] = None,
):
    """Three-fiber sample U -> V -> W exact in the middle, with plan.

    Built through disjoint coordinate blocks of unitary frames so that the
    middle degree has image rank b, kernel rank b and no harmonic slack;
    every nonzero singular value lies in [0.5, 2].
    """
    algebra = _pick_algebra(rng, algebra)

    while True:
        m_u = int(rng.integers(1, max_rank + 1))
        m_v = int(rng.integers(1, max_rank + 1))
        m_w = int(rng.integers(1, max_rank + 1))
        lo, hi = max(0, m_v - m_w), min(m_u, m_v)
        if lo <= hi:
            break
    b = int(rng.integers(lo, hi + 1))
    c = m_v - b

    mods = [ModuleSpec(algebra, m) for m in (m_u, m_v, m_w)]
    frames = [random_unitary_morphism(m, rng) for m in mods]

    first = _shift_morphism(mods[0], mods[1], [(l, l) for l in range(b)], rng)
    second = _shift_morphism(mods[1], mods[2], [(b + l, l) for l in range(c)], rng)
    maps = [
        frames[1] @ first @ frames[0].adjoint(),
        frames[2] @ second @ frames[1].adjoint(),
    ]
    if tag is None:
        tag = f"exact-{m_u}-{m_v}-{m_w}-b{b}"
    sample = SymbolSample(tag, mods, maps)
    plan = {"ranks": (m_u, m_v, m_w), "image_rank": b, "kernel_rank": b, "coimage_rank": c}
    return sample, plan


def random_degenerate_sample(
    rng: np.random.Generator,
    algebra: Optional[AlgebraSpec] = None,
    max_rank: int = 4,
    slack: int = 1,
    tag: Optional[str] = None,
):
    """Like random_exact_sample but with harmonic slack in the middle fiber."""
    algebra = _pick_algebra(rng, algebra)

    slack = max(1, int(slack))
    m_u = int(rng.integers(1, max_rank + 1))
    m_w = int(rng.integers(1, max_rank + 1))
    b = int(rng.integers(0, m_u + 1))
    c = int(rng.integers(0, m_w + 1))
    m_v = slack + b + c

    mods = [ModuleSpec(algebra, m) for m in (m_u, m_v, m_w)]
    frames = [random_unitary_morphism(m, rng) for m in mods]

    first = _shift_morphism(mods[0], mods[1], [(l, slack + l) for l in range(b)], rng)
    second = _shift_morphism(mods[1], mods[2], [(slack + b + l, l) for l in range(c)], rng)
    maps = [
        frames[1] @ first @ frames[0].adjoint(),
        frames[2] @ second @ frames[1].adjoint(),
    ]
    if tag is None:
        tag = f"degenerate-{m_u}-{m_v}-{m_w}-slack{slack}"
    sample = SymbolSample(tag, mods, maps)
    plan = {"ranks": (m_u, m_v, m_w), "image_rank": b, "coimage_rank": c, "slack": slack}
    return sample, plan
