"""Symbol sequences and pointwise ellipticity certificates.

A symbol sample is a finite complex of module maps over the algebra,
recorded at one covector (the tag says which).  Samples that share their
fibers form a SampleSet, a direct sum held as one (samples, rows, cols)
stack per degree and algebra block; the scan runs on sets and never
takes a stack apart into per-sample maps.  For each degree the scan
decides exactness of every sample by rank arithmetic, forms the symbol
Laplacian

    S_i = s_{i-1} s_{i-1}* + s_i* s_i

and measures how invertible it is.  Exactness of the sequence at a sample is
equivalent to invertibility of every S_i there; the scan decides both
with explicit margins.  At an exact degree the weighted variants
lam * s_i* s_i + mu * s_{i-1} s_{i-1}* stay invertible for any nonzero
weights, which weighted_symbol_laplacian_check verifies on one sample and
degree; the scan does not run it.  A certificate only speaks for the
sampled covectors.

The module also builds the exterior-algebra symbols of the de Rham complex:
at covector xi the degree-k map is wedging with 2*pi*i*xi, and the symbol
Laplacian collapses to (2*pi*|xi|)^2 times the identity.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from itertools import combinations
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec, _freeze
from .chain import (
    ChainComplex,
    _pick_algebra,
    _shift_morphism,
    laplacian_mats,
    random_unitary_morphism,
    require_squares,
    square_residual_values,
)
from .errors import (
    DegreeMismatch,
    EmptySampleSet,
    IndexOutOfRange,
    ProjectionLeak,
    SpecMismatch,
    ZeroCoefficient,
)
from .hom import (
    Morphism,
    block_singular_values,
    merged_singular_values,
    projection_residuals,
    singular_rank,
)
from .module import ModuleSpec

__all__ = [
    "SymbolSample",
    "SampleSet",
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


@functools.cache
def _wedge_terms(n: int, k: int) -> tuple:
    """wedge_matrix(n, k, .)'s shape and terms, built once: read-only arrays (rows, cols, js, signs).

    Term (a, b, j, sign): e_j wedge (source slot b) = sign * (target slot a); no two share a slot pair.
    """
    src = exterior_basis(n, k)
    tgt = {s: a for a, s in enumerate(exterior_basis(n, k + 1))}
    terms = [
        (tgt[tuple(sorted(subset + (j,)))], b, j, (-1) ** sum(1 for x in subset if x < j))
        for b, subset in enumerate(src)
        for j in range(n)
        if j not in subset
    ]
    return (len(tgt), len(src)), tuple(_freeze(np.array(t)) for t in zip(*terms))


def wedge_matrix(n: int, k: int, xi) -> np.ndarray:
    """Matrix of (xi wedge .) from k-forms to (k+1)-forms.

    e_j wedge e_S = (-1)^{#(elements of S below j)} e_{S union j} for j not in S.
    Covectors stacked as (..., n) give the stack of their matrices.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape[-1:] != (n,):
        raise ValueError(f"covector of shape {xi.shape}, expected ({n},)")
    shape, terms = _wedge_terms(n, k)
    out = np.zeros(xi.shape[:-1] + shape, dtype=complex)
    if terms:
        rows, cols, js, signs = terms
        out[..., rows, cols] += signs * xi[..., js]
    return out


def _kron(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """kron(x, y) over the last two axes of x, as an einsum so that every zero entry is +0.0."""
    (a, b), (c, d) = x.shape[-2:], y.shape
    return np.einsum("...ij,ab->...iajb", x, y).reshape(*x.shape[:-2], a * c, b * d)


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


def _scalar_mats(coeffs: np.ndarray, sizes) -> list:
    """Per block R_b = kron(c, I_nb), for scalar matrices c stacked along leading axes or not."""
    return [_kron(coeffs, np.eye(nb)) for nb in sizes]


def _onto_target(mats: list, target: ModuleSpec) -> list:
    """Block matrices followed by the target's projection when it is projective.

    A symbol map kron(c, I) acts on the whole free module; it commutes with
    kron(I_slots, P_b), so projecting the target cuts it down to the fibers.
    """
    if target.projection is None:
        return mats
    return [x @ p for x, p in zip(mats, target.projection)]


def de_rham_symbol_coeffs(n: int, k: int, xi, rank: int) -> np.ndarray:
    """Scalar matrix of the degree-k de Rham symbol at xi on a fiber of that rank.

    It is 2*pi*i kron(wedge_matrix(n, k, xi)^T, I_rank), with rows indexing
    the k-form slots (the source) as every module map matrix does.
    Covectors stacked as (..., n) give the stack (..., rows, cols); at k = n
    there are no (n+1)-forms and the matrix has no columns.
    """
    w = wedge_matrix(n, k, np.asarray(xi, dtype=float))
    return 2j * np.pi * _kron(w.swapaxes(-1, -2), np.eye(rank))


def de_rham_symbol_sample(n: int, fiber: ModuleSpec, xi, tag: Optional[str] = None) -> "SymbolSample":
    """Symbol complex of the de Rham operator at covector xi: wedge by 2*pi*i*xi,
    each map followed by its target fiber's projection when the fiber is projective."""
    xi = np.asarray(xi, dtype=float)
    fibers = [form_fiber(fiber, n, k) for k in range(n + 1)]
    coeffs = [de_rham_symbol_coeffs(n, k, xi, fiber.rank) for k in range(n)]
    sizes = fiber.algebra.block_sizes
    maps = [
        Morphism(fibers[k], fibers[k + 1], _onto_target(_scalar_mats(c, sizes), fibers[k + 1]))
        for k, c in enumerate(coeffs)
    ]
    if tag is None:
        tag = "xi=" + ",".join(format(x, ".6g") for x in xi)
    return SymbolSample(tag, fibers, maps)


# -- samples and checks -------------------------------------------------------------


class SymbolSample:
    """One covector's symbol sequence, stored as a chain complex."""

    def __init__(self, tag: str, fibers, maps):
        self.tag = str(tag)
        self.chain = ChainComplex(list(fibers), list(maps))

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


class SampleSet:
    """Symbol samples sharing one fiber sequence, each degree's maps stacked per block.

    maps[k] holds the degree-k maps as one read-only (samples, rows*nb,
    cols*nb) array per algebra block, svals[k] their merged singular values
    (samples, values) from one values-only SVD per block.  The constructor
    checks the shapes, then on the stacks, with relative residuals against
    tol, that no map leaks outside a projective fiber (R_b = P_source,b R_b
    P_target,b) and D D = 0.  The error names the first failing sample
    (ProjectionLeak.index with the map's degree, NotAComplex.index).
    """

    def __init__(self, tags, fibers, maps, tol: float = 1e-9):
        self.tags, self.fibers = [str(t) for t in tags], list(fibers)
        if not self.tags:
            raise EmptySampleSet("no symbol samples")
        if len(maps) != len(self.fibers) - 1:
            raise DegreeMismatch(f"{len(self.fibers)} fibers need {len(self.fibers) - 1} maps, got {len(maps)}")
        count, sizes = len(self.tags), self.fibers[0].algebra.block_sizes
        self.maps = [[_freeze(np.asarray(r, dtype=complex).view()) for r in st] for st in maps]
        for k, st in enumerate(self.maps):
            want = [(count, self.fibers[k].rank * nb, self.fibers[k + 1].rank * nb) for nb in sizes]
            if [r.shape for r in st] != want:
                raise SpecMismatch(f"degree {k} maps of shapes {[r.shape for r in st]}, expected {want}")
        self.svals = [_freeze(merged_singular_values(block_singular_values(st), sizes)) for st in self.maps]
        norms = [s[:, 0] if s.shape[-1] else np.zeros(count) for s in self.svals]
        leaks = np.reshape([
            projection_residuals(st, a, b, n, tol)
            for st, a, b, n in zip(self.maps, self.fibers, self.fibers[1:], norms)
        ], (len(self.maps), count))
        leaking = (leaks > tol).any(axis=0)
        # D D = 0 is checked on the samples ahead of the first leak, so errors come in sample order
        first = int(np.argmax(leaking)) if leaking.any() else count
        raw, rel, _ = square_residual_values(self.maps, norms, tol)
        require_squares([r[:first] for r in raw], [r[:first] for r in rel], tol)
        if first < count:
            k = int(np.argmax(leaks[:, first] > tol))
            raise ProjectionLeak(leaks[k, first], index=first, degree=k)

    @classmethod
    def of(cls, samples) -> "SampleSet":
        """The set of these SymbolSamples, which must share their fibers."""
        samples = list(samples)
        if not samples:
            raise EmptySampleSet("no symbol samples")
        if any(s.fibers != samples[0].fibers for s in samples[1:]):
            raise SpecMismatch("samples disagree on the fiber sequence")
        maps = [[np.stack(b) for b in zip(*(t.mats for t in ts))] for ts in zip(*(s.maps for s in samples))]
        return cls([s.tag for s in samples], samples[0].fibers, maps)

    def __len__(self) -> int:
        return len(self.tags)


@dataclass(frozen=True)
class ExactnessResult:
    degree: int
    exact: bool
    incoming_rank: int
    outgoing_nullity: int
    decision_margin: float
    spectral_margin: float
    spectral_scale: float


def _restricted_min_singular(svals: np.ndarray, dim: int) -> tuple:
    """(smallest singular value on the module, largest) of self-maps, from their merged values.

    With a projective module the shadow is padded by an exact zero block, so
    the relevant smallest value is the dim-th largest one.
    """
    lead = svals.shape[:-1]
    smax = svals[..., 0] if svals.shape[-1] else np.zeros(lead)
    return (svals[..., dim - 1] if dim else np.full(lead, np.inf)), smax


def symbol_laplacian(sample: SymbolSample, i: int) -> Morphism:
    return sample.chain.laplacian(i)


def _exactness_rows(samples: SampleSet, degrees, cutoff: float) -> list:
    """Per sample of the set, its ExactnessResults at the given degrees.

    The maps' ranks are cut on the set's singular values; each degree's
    Laplacians are formed on the stacks, one SVD per block.
    """
    fibers, count = samples.fibers, len(samples)
    sizes = fibers[0].algebra.block_sizes
    # D_{-1} and D_L: maps through the zero module, with no singular values
    maps = [
        [np.zeros((count, 0, fibers[0].rank * nb)) for nb in sizes],
        *samples.maps,
        [np.zeros((count, fibers[-1].rank * nb, 0)) for nb in sizes],
    ]
    no_values = np.zeros((count, 0))
    cuts = [singular_rank(s, cutoff) for s in (no_values, *samples.svals, no_values)]
    columns = []
    for i in degrees:
        (rank_in, margin_in), (rank_out, margin_out) = cuts[i], cuts[i + 1]
        dim = fibers[i].concrete_dim
        lap = merged_singular_values(block_singular_values(laplacian_mats(maps[i], maps[i + 1])), sizes)
        values = zip(
            rank_in, dim - rank_out, np.minimum(margin_in, margin_out),
            *_restricted_min_singular(lap, dim),
        )
        columns.append(
            [
                ExactnessResult(i, bool(r == k), int(r), int(k), float(m), float(lo), float(hi))
                for r, k, m, lo, hi in values
            ]
        )
    return [list(row) for row in zip(*columns)]


def exactness_check(sample: SymbolSample, i: int, cutoff: float = 1e-10) -> ExactnessResult:
    """Decide Rng s_{i-1} = Ker s_i by rank arithmetic with margins.

    The complex property gives the containment, so exactness reduces to the
    dimension count rank(s_{i-1}) = dim Ker(s_i).  decision_margin is the
    factor by which the singular spectra clear the rank cutoff (small values
    mean the decision is fragile); spectral_margin is the smallest singular
    value of the symbol Laplacian on the module, which is positive exactly
    when the sample is exact at this degree.  This is elliptic_scan's stacked
    computation on the set of one sample.
    """
    if not 0 <= i <= sample.top_degree:
        raise IndexOutOfRange(f"degree {i} outside 0..{sample.top_degree}")
    return _exactness_rows(SampleSet.of([sample]), [i], cutoff)[0][0]


def weighted_symbol_laplacian_check(
    sample: SymbolSample, i: int, lam: complex, mu: complex, cutoff: float = 1e-10
) -> dict:
    """Invertibility of lam * s_i* s_i + mu * s_{i-1} s_{i-1}* on degree i.

    Both weights must be nonzero; at an exact degree the two summands are
    invertible on complementary orthogonal ranges, so the weighted sum is an
    automorphism for every nonzero pair.  The operator is invertible on the
    module where its rank (hom.rank_rule) reaches the module's dimension,
    which the zero module always does.
    """
    lam, mu = complex(lam), complex(mu)
    if lam == 0 or mu == 0:
        raise ZeroCoefficient("weights must both be nonzero")
    s_in = sample.chain.differential(i - 1)
    s_out = sample.chain.differential(i)
    op = lam * (s_out.adjoint() @ s_out) + mu * (s_in @ s_in.adjoint())
    dim = op.source.concrete_dim
    smin, smax = map(float, _restricted_min_singular(op.singular_values(), dim))
    return {
        "degree": i,
        "lam": lam,
        "mu": mu,
        "min_singular": smin,
        "scale": smax,
        "invertible": op.concrete_rank(cutoff) >= dim,
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

    samples is a SampleSet, or SymbolSamples that are grouped by fibers into
    sets (SampleSet.of); the records keep the input order.
    elliptic: every degree of every sample exact, all margins decisive.
    not-elliptic: some degree decisively non-exact.
    inconclusive: a rank decision or an invertibility margin sits within a
    factor 10 of the cutoff, so the verdict would not survive a perturbation.
    """
    if isinstance(samples, SampleSet):
        sets = [(samples, range(len(samples)))]
    else:
        samples = list(samples)
        if not samples:
            raise EmptySampleSet("no symbol samples to scan")
        groups: dict = {}
        for j, sample in enumerate(samples):
            groups.setdefault(tuple(sample.fibers), []).append(j)
        sets = [(SampleSet.of(samples[j] for j in idx), idx) for idx in groups.values()]
    records = [None] * sum(len(idx) for _, idx in sets)
    for sset, idx in sets:
        for j, tag, degrees in zip(idx, sset.tags, _exactness_rows(sset, range(len(sset.fibers)), cutoff)):
            records[j] = {"tag": tag, "degrees": degrees}

    min_spectral = float("inf")
    min_decision = float("inf")
    any_nonexact = False
    fragile = False
    for rec in records:
        for r in rec["degrees"]:
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

    # a fragile decision makes any verdict inconclusive
    verdict = "inconclusive" if fragile else "not-elliptic" if any_nonexact else "elliptic"
    return EllipticityCertificate(
        verdict=verdict,
        samples=len(records),
        min_spectral_margin=min_spectral,
        min_decision_margin=min_decision,
        cutoff=cutoff,
        records=records,
        notes=("certificate covers the sampled covectors only",),
    )


# -- generators ----------------------------------------------------------------------


def _framed_sample(tag: str, rng, algebra, ranks, first_pairs, second_pairs) -> SymbolSample:
    """U -> V -> W with block shifts on the given entry pairs, conjugated by random unitary frames."""
    mods = [ModuleSpec(algebra, m) for m in ranks]
    frames = [random_unitary_morphism(m, rng) for m in mods]
    first = _shift_morphism(mods[0], mods[1], first_pairs, rng)
    second = _shift_morphism(mods[1], mods[2], second_pairs, rng)
    maps = [frames[1] @ first @ frames[0].adjoint(), frames[2] @ second @ frames[1].adjoint()]
    return SymbolSample(tag, mods, maps)


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
    if tag is None:
        tag = f"exact-{m_u}-{m_v}-{m_w}-b{b}"
    pairs = [(l, l) for l in range(b)], [(b + l, l) for l in range(c)]
    sample = _framed_sample(tag, rng, algebra, (m_u, m_v, m_w), *pairs)
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
    if tag is None:
        tag = f"degenerate-{m_u}-{m_v}-{m_w}-slack{slack}"
    pairs = [(l, slack + l) for l in range(b)], [(slack + b + l, l) for l in range(c)]
    sample = _framed_sample(tag, rng, algebra, (m_u, m_v, m_w), *pairs)
    plan = {"ranks": (m_u, m_v, m_w), "image_rank": b, "coimage_rank": c, "slack": slack}
    return sample, plan
