"""Chain complexes of Hilbert modules: Laplacians, parametrices, Hodge theory.

A complex is a finite list of modules over one algebra together with
differentials D_i: G_i -> G_{i+1} satisfying D_{i+1} D_i = 0.  The degree-i
Laplacian is

    L_i = D_{i-1} D_{i-1}* + D_i* D_i

with zero maps substituted beyond the ends.  Its Moore-Penrose pseudoinverse
g and the kernel projection p = 1 - g L form a parametrix: g L + p = 1,
L g + p = 1, L p = 0, and additionally g p = 0 so p is idempotent.  The
parametrix intertwines the differentials (p' D = 0, D g = g' D, D L = L' D),
harmonic vectors represent cohomology classes bijectively, and every vector
splits as harmonic + exact + coexact.  All of this is checked numerically by
the test suite against the concrete shadow matrices.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec
from .errors import (
    DegreeMismatch,
    IndexOutOfRange,
    NotACocycle,
    SpecMismatch,
)
from .hom import Morphism, identity_morphism, random_morphism
from .module import ModuleSpec, ModuleVector

__all__ = [
    "ChainComplex",
    "Parametrix",
    "HodgeSplit",
    "HodgeIsomorphism",
    "HodgeReport",
    "verify_chain_map",
    "free_rank_of_projection",
    "random_complex",
    "random_unitary_morphism",
]


def free_rank_of_projection(p: Morphism, tol: float = 1e-8) -> Optional[int]:
    """Free rank read off a projection's block-trace profile.

    trace(R_b) / n_b is the free rank of the projected submodule in algebra
    block b when that submodule is free.  Returns the common integer when
    every block agrees, else None.
    """
    ratios = [
        float(np.trace(r).real) / nb for nb, r in zip(p.algebra.block_sizes, p.mats)
    ]
    candidate = int(round(ratios[0]))
    if candidate < 0:
        return None
    for r in ratios:
        if abs(r - candidate) > tol:
            return None
    return candidate


@dataclass(frozen=True)
class Parametrix:
    """Green operator and harmonic projection for one Laplacian."""

    degree: int
    laplacian: Morphism
    green: Morphism
    projector: Morphism

    def residuals(self) -> dict:
        lap, g, p = self.laplacian, self.green, self.projector
        one = identity_morphism(lap.source)
        return {
            "green_laplacian_plus_projector": (g @ lap + p - one).norm(),
            "laplacian_green_plus_projector": (lap @ g + p - one).norm(),
            "laplacian_kills_projector": (lap @ p).norm(),
            "green_kills_projector": (g @ p).norm(),
            "projector_idempotent": (p @ p - p).norm(),
        }

    def verify(self, tol: float = 1e-8, require_green_projector_vanish: bool = False) -> bool:
        """Parametrix validity: the two resolvent identities and L p = 0.

        g p = 0 (hence idempotence of p) holds for the pseudoinverse
        construction but is not required of a user-supplied parametrix;
        set require_green_projector_vanish to insist on it.
        """
        r = self.residuals()
        keys = [
            "green_laplacian_plus_projector",
            "laplacian_green_plus_projector",
            "laplacian_kills_projector",
        ]
        if require_green_projector_vanish:
            keys.append("green_kills_projector")
        return all(r[k] <= tol for k in keys)


@dataclass(frozen=True)
class HodgeSplit:
    """Decomposition v = harmonic + exact + coexact with potentials."""

    harmonic: ModuleVector
    exact: ModuleVector
    coexact: ModuleVector
    exact_potential: ModuleVector
    coexact_potential: ModuleVector
    reconstruction_residual: float
    orthogonality: dict


class HodgeIsomorphism:
    """Mutually inverse maps between harmonic vectors and cohomology classes.

    harmonic_to_cocycle injects a harmonic vector as its own representative;
    cocycle_to_harmonic projects a cocycle to its harmonic representative and
    returns the primitive witnessing that the difference is exact.
    """

    def __init__(self, complex_: "ChainComplex", degree: int, cutoff: float, tol: float):
        self.complex = complex_
        self.degree = degree
        self.tol = tol
        self._par = complex_.parametrix(degree, cutoff)
        self._below = (
            complex_.parametrix(degree - 1, cutoff) if degree > 0 else None
        )

    def _require_cocycle(self, v: ModuleVector):
        d_out = self.complex.differential(self.degree)
        res = d_out(v).norm()
        if res > self.tol * max(1.0, v.norm()):
            raise NotACocycle(
                f"differential residual {res:.3e} at degree {self.degree}"
            )

    def harmonic_to_cocycle(self, h: ModuleVector) -> ModuleVector:
        self._require_cocycle(h)
        return h

    def cocycle_to_harmonic(self, v: ModuleVector):
        """Returns (harmonic representative, primitive w with v - h = D w)."""
        self._require_cocycle(v)
        h = self._par.projector(v)
        d_in = self.complex.differential(self.degree - 1)
        if self._below is not None:
            w = self._below.green(d_in.adjoint()(v))
        else:
            w = d_in.source.zero_vector()
        return h, w


@dataclass(frozen=True)
class HodgeReport:
    """Cohomology bookkeeping for one degree of a complex."""

    degree: int
    module_dim: int
    harmonic_dim: int
    cohomology_dim: int
    dims_match: bool
    free_rank: Optional[int]
    rank_margin: float
    residuals: dict
    notes: tuple = field(default_factory=tuple)


class ChainComplex:
    """Modules G_0..G_L over one algebra with differentials squaring to zero."""

    def __init__(self, modules, differentials, tol: float = 1e-9, validate: bool = True):
        modules = list(modules)
        differentials = list(differentials)
        if not modules:
            raise ValueError("a complex needs at least one module")
        if len(differentials) != len(modules) - 1:
            raise DegreeMismatch(
                f"{len(modules)} modules need {len(modules) - 1} differentials, "
                f"got {len(differentials)}"
            )
        algebra = modules[0].algebra
        for mod in modules:
            if mod.algebra != algebra:
                raise SpecMismatch("all modules must share one algebra")
        for i, diff in enumerate(differentials):
            if diff.source != modules[i] or diff.target != modules[i + 1]:
                raise SpecMismatch(f"differential {i} does not match its modules")
        self.modules = modules
        self.diffs = differentials
        self.algebra = algebra
        self._zero_module = ModuleSpec(algebra, 0)
        self._laplacians: dict = {}
        self._parametrices: dict = {}
        if validate:
            self.square_residuals(tol, strict=True)

    @property
    def top_degree(self) -> int:
        return len(self.modules) - 1

    def module(self, i: int) -> ModuleSpec:
        if not 0 <= i <= self.top_degree:
            raise IndexOutOfRange(f"degree {i} outside 0..{self.top_degree}")
        return self.modules[i]

    def differential(self, i: int) -> Morphism:
        """D_i, with zero maps through the zero module beyond the ends."""
        if 0 <= i < len(self.diffs):
            return self.diffs[i]
        if i == -1:
            return Morphism.zero(self._zero_module, self.modules[0])
        if i == self.top_degree:
            return Morphism.zero(self.modules[-1], self._zero_module)
        raise IndexOutOfRange(f"differential index {i} outside -1..{self.top_degree}")

    def square_residuals(self, tol: float = 1e-9, strict: bool = False) -> list:
        """Operator norms of D_{i+1} D_i, relative to the factor norms."""
        out = []
        for i in range(len(self.diffs) - 1):
            raw = (self.diffs[i + 1] @ self.diffs[i]).norm()
            scale = max(1.0, self.diffs[i + 1].norm() * self.diffs[i].norm())
            out.append(raw / scale)
            if strict and out[-1] > tol:
                raise SpecMismatch(
                    f"differentials {i + 1} after {i} compose to norm {raw:.3e}, "
                    "not a complex"
                )
        return out

    # -- Laplacian and parametrix ------------------------------------------------

    def laplacian(self, i: int) -> Morphism:
        if not 0 <= i <= self.top_degree:
            raise IndexOutOfRange(f"degree {i} outside 0..{self.top_degree}")
        if i not in self._laplacians:
            d_in = self.differential(i - 1)
            d_out = self.differential(i)
            self._laplacians[i] = d_in @ d_in.adjoint() + d_out.adjoint() @ d_out
        return self._laplacians[i]

    def parametrix(self, i: int, cutoff: float = 1e-10) -> Parametrix:
        key = (i, cutoff)
        if key not in self._parametrices:
            lap = self.laplacian(i)
            green = lap.pseudoinverse(cutoff)
            projector = identity_morphism(lap.source) - green @ lap
            self._parametrices[key] = Parametrix(i, lap, green, projector)
        return self._parametrices[key]

    def parametrix_family(self, cutoff: float = 1e-10) -> list:
        return [self.parametrix(i, cutoff) for i in range(self.top_degree + 1)]

    # -- harmonic space ------------------------------------------------------------

    def _kernel_rows(self, i: int, ops, cutoff: float) -> list:
        """Per block, orthonormal rows spanning the vectors of module i all ops kill.

        A vector's block is an n_b x (m n_b) row matrix U_b and a map acts as
        U_b R_b.  The module's rows are y Q_b* for an orthonormal basis Q_b
        of the range of P_b (all of C^{m n_b} for a free module), so the
        kernel rows are y Q_b* for y in the left null space of Q_b* times
        the side-by-side stack of the ops' R_b.  As in cohomology_report,
        singular values at or below cutoff times the largest over all
        blocks count as zero; ops that are all zero leave the whole module.
        """
        mod = self.modules[i]
        frames, svds = [], []
        for b, nb in enumerate(self.algebra.block_sizes):
            if mod.projection is None:
                frame = np.eye(mod.rank * nb)
            else:
                w, v = np.linalg.eigh(mod.projection[b])
                frame = v[:, w > 0.5]
            frames.append(frame)
            svds.append(np.linalg.svd(frame.conj().T @ np.hstack([op.mats[b] for op in ops])))
        smax = max((f.S[0] for f in svds if f.S.size), default=0.0)
        return [
            f.U[:, np.count_nonzero(f.S > cutoff * smax) :].conj().T @ q.conj().T
            for f, q in zip(svds, frames)
        ]

    def harmonic_basis(self, i: int, cutoff: float = 1e-10) -> list:
        """Orthonormal concrete basis of Ker L_i inside the module.

        Each null row x of block b gives n_b basis vectors, x written into
        one row of that block's row matrix at a time.
        """
        mod = self.modules[i]
        sizes = self.algebra.block_sizes
        basis = []
        for b, rows in enumerate(self._kernel_rows(i, [self.laplacian(i)], cutoff)):
            for x in rows:
                for a in range(sizes[b]):
                    vec_rows = mod._zero_rows()
                    vec_rows[b][a] = x
                    basis.append(ModuleVector(mod, vec_rows))
        return basis

    def kernel_intersection_check(self, i: int, cutoff: float = 1e-10) -> dict:
        """Ker L = Ker D intersected with Ker D_prev*, by dimension and residual."""
        lap = self.laplacian(i)
        d_out = self.differential(i)
        d_in_adj = self.differential(i - 1).adjoint()
        nullity_lap = self.modules[i].concrete_dim - lap.concrete_rank(cutoff)
        rows = self._kernel_rows(i, [d_out, d_in_adj], cutoff)
        nullity_stack = sum(
            nb * len(r) for nb, r in zip(self.algebra.block_sizes, rows)
        )

        harmonic = self.harmonic_basis(i, cutoff)
        res_out = max((d_out(h).norm() for h in harmonic), default=0.0)
        res_in = max((d_in_adj(h).norm() for h in harmonic), default=0.0)
        return {
            "laplacian_nullity": nullity_lap,
            "intersection_nullity": nullity_stack,
            "dims_match": nullity_lap == nullity_stack,
            "differential_on_harmonics": res_out,
            "adjoint_on_harmonics": res_in,
        }

    # -- Hodge decomposition ---------------------------------------------------------

    def hodge_decompose(self, i: int, v: ModuleVector, cutoff: float = 1e-10) -> HodgeSplit:
        if v.module != self.modules[i]:
            raise SpecMismatch(f"vector does not live in degree {i}")
        par = self.parametrix(i, cutoff)
        d_in = self.differential(i - 1)
        d_out = self.differential(i)

        harmonic = par.projector(v)
        a = d_in.pseudoinverse(cutoff)(v)
        exact = d_in(a)
        b = d_out.pseudoinverse(cutoff).adjoint()(v)
        coexact = d_out.adjoint()(b)

        from .module import inner_product

        recon = (v - harmonic - exact - coexact).norm()
        orth = {
            "harmonic_exact": inner_product(harmonic, exact).norm(),
            "harmonic_coexact": inner_product(harmonic, coexact).norm(),
            "exact_coexact": inner_product(exact, coexact).norm(),
        }
        return HodgeSplit(harmonic, exact, coexact, a, b, recon, orth)

    def hodge_isomorphism(self, i: int, cutoff: float = 1e-10, tol: float = 1e-8) -> HodgeIsomorphism:
        return HodgeIsomorphism(self, i, cutoff, tol)

    # -- reporting -------------------------------------------------------------------

    def cohomology_report(self, i: int, cutoff: float = 1e-10, tol: float = 1e-8) -> HodgeReport:
        lap = self.laplacian(i)
        d_in = self.differential(i - 1)
        d_out = self.differential(i)
        mod_dim = self.modules[i].concrete_dim

        rank_lap, margin_lap = lap.rank_with_margin(cutoff)
        rank_in, margin_in = d_in.rank_with_margin(cutoff)
        rank_out, margin_out = d_out.rank_with_margin(cutoff)

        harmonic_dim = mod_dim - rank_lap
        cohomology_dim = (mod_dim - rank_out) - rank_in

        par = self.parametrix(i, cutoff)
        residuals = par.residuals()
        if i < len(self.diffs):
            above = self.parametrix(i + 1, cutoff)
            residuals["projector_after_differential"] = (above.projector @ d_out).norm()
            residuals["green_commutes_with_differential"] = (
                d_out @ par.green - above.green @ d_out
            ).norm()
        residuals["differential_after_projector"] = (d_out @ par.projector).norm()

        free_rank = free_rank_of_projection(par.projector, tol)
        return HodgeReport(
            degree=i,
            module_dim=mod_dim,
            harmonic_dim=harmonic_dim,
            cohomology_dim=cohomology_dim,
            dims_match=harmonic_dim == cohomology_dim,
            free_rank=free_rank,
            rank_margin=min(margin_lap, margin_in, margin_out),
            residuals=residuals,
            notes=(
                "dimensions are concrete complex dimensions of the shadow",
                "ranges are closed at finite concrete dimension, so the "
                "cohomology quotient carries the induced norm topology",
            ),
        )


def verify_chain_map(complex_: ChainComplex, parametrices, tol: float = 1e-8) -> dict:
    """Residuals of the intertwining identities for a parametrix family.

    For every differential D_i the family must satisfy p_{i+1} D_i = 0,
    D_i g_i = g_{i+1} D_i and D_i L_i = L_{i+1} D_i.
    """
    parametrices = list(parametrices)
    if len(parametrices) != complex_.top_degree + 1:
        raise DegreeMismatch(
            f"need one parametrix per degree 0..{complex_.top_degree}, "
            f"got {len(parametrices)}"
        )
    for i, par in enumerate(parametrices):
        if par.degree != i:
            raise DegreeMismatch(f"parametrix at position {i} has degree {par.degree}")

    degrees = []
    worst = 0.0
    for i in range(len(complex_.diffs)):
        d = complex_.diffs[i]
        low, high = parametrices[i], parametrices[i + 1]
        entry = {
            "degree": i,
            "projector_after_differential": (high.projector @ d).norm(),
            "green_commutes": (d @ low.green - high.green @ d).norm(),
            "laplacian_commutes": (d @ low.laplacian - high.laplacian @ d).norm(),
            "differential_after_projector": (d @ low.projector).norm(),
        }
        degrees.append(entry)
        worst = max(
            worst,
            entry["projector_after_differential"],
            entry["green_commutes"],
            entry["laplacian_commutes"],
            entry["differential_after_projector"],
        )
    return {"degrees": degrees, "max_residual": worst, "passed": worst <= tol}


# -- random complexes ------------------------------------------------------------------


def random_unitary_morphism(module: ModuleSpec, rng: np.random.Generator) -> Morphism:
    """Unitary automorphism: polar factor of a Gaussian morphism.

    The Gaussian draw is projected onto the module, so each block matrix
    R_b = U_b S_b V_b* has rank at most r_b = rank P_b (r_b is the size of
    R_b for a free module).  The polar factor over the first r_b singular
    triples, U_b[:, :r_b] V_b[:r_b]*, is unitary on the module: both of its
    products with its adjoint are the projection, the module's identity.
    Draws are rejected while the smallest of the kept singular values over
    all blocks is below 1e-3 times the largest.
    """
    if module.rank == 0:
        return identity_morphism(module)
    ranks = module.block_ranks
    while True:
        g = random_morphism(module, module, rng)
        svds = [np.linalg.svd(mat) for mat in g.mats]
        s = np.concatenate([f.S[:r] for f, r in zip(svds, ranks)])
        if s.size == 0 or s.min() >= 1e-3 * s.max():
            break
    return Morphism(module, module, [f.U[:, :r] @ f.Vh[:r] for f, r in zip(svds, ranks)])


# Algebras a random generator picks from when none is given.
ALGEBRA_CATALOG = [(1,), (2,), (1, 2), (2, 2), (3,)]


def _pick_algebra(rng: np.random.Generator, algebra: Optional[AlgebraSpec]) -> AlgebraSpec:
    """algebra itself, or one drawn uniformly from ALGEBRA_CATALOG."""
    if algebra is not None:
        return algebra
    return AlgebraSpec(ALGEBRA_CATALOG[int(rng.integers(len(ALGEBRA_CATALOG)))])


def _shift_morphism(
    source: ModuleSpec, target: ModuleSpec, pairs, rng: np.random.Generator
) -> Morphism:
    """Map with entry (i, j) = s u for each (i, j) in pairs, zero elsewhere.

    Per pair, in order, s is drawn uniform in [0.5, 2] and then u a random
    unitary of the algebra, so every nonzero singular value lies in [0.5, 2].
    """
    algebra = source.algebra
    rows = [[algebra.zero()] * target.rank for _ in range(source.rank)]
    for i, j in pairs:
        s = float(rng.uniform(0.5, 2.0))
        u = algebra.random_unitary(rng)
        rows[i][j] = AlgebraElement(algebra, [s * ub for ub in u.blocks], copy=False)
    return Morphism.from_entries(source, target, rows)


def random_complex(
    rng: np.random.Generator,
    algebra=None,
    max_modules: int = 5,
    max_rank: int = 4,
):
    """Seeded random complex with known harmonic structure.

    Construction: pick module ranks and a nested rank plan, route each
    differential through disjoint coordinate blocks of a random orthogonal
    decomposition (D_i = Q_{i+1} E_i Q_i* with unitary Q and block-shift E),
    which enforces D_{i+1} D_i = 0 by construction and keeps every nonzero
    singular value in [0.5, 2].  Returns (complex, plan); the plan records
    the planted harmonic free ranks and differential ranks per degree.
    """
    algebra = _pick_algebra(rng, algebra)

    count = int(rng.integers(2, max_modules + 1))
    ranks = [int(rng.integers(1, max_rank + 1)) for _ in range(count)]
    if count > 2 and rng.random() < 0.1:
        ranks[int(rng.integers(count))] = 0

    # nested differential ranks: r_i <= m_i - r_{i-1} and r_i <= m_{i+1}
    diff_ranks = []
    prev = 0
    for i in range(count - 1):
        cap = min(ranks[i] - prev, ranks[i + 1])
        r = int(rng.integers(0, cap + 1)) if cap > 0 else 0
        diff_ranks.append(r)
        prev = r

    modules = [ModuleSpec(algebra, m) for m in ranks]
    units = [random_unitary_morphism(mod, rng) for mod in modules]

    diffs = []
    for i in range(count - 1):
        incoming = diff_ranks[i - 1] if i > 0 else 0
        harmonic = ranks[i] - incoming - diff_ranks[i]
        # the image lands just after the next module's harmonic slots
        next_harmonic = modules[i + 1].rank - diff_ranks[i] - (
            diff_ranks[i + 1] if i + 1 < count - 1 else 0
        )
        pairs = [(harmonic + incoming + l, next_harmonic + l) for l in range(diff_ranks[i])]
        e = _shift_morphism(modules[i], modules[i + 1], pairs, rng)
        diffs.append(units[i + 1] @ e @ units[i].adjoint())

    planted = []
    for i in range(count):
        incoming = diff_ranks[i - 1] if i > 0 else 0
        outgoing = diff_ranks[i] if i < count - 1 else 0
        planted.append(ranks[i] - incoming - outgoing)

    cx = ChainComplex(modules, diffs)
    plan = {
        "blocks": algebra.block_sizes,
        "module_ranks": ranks,
        "differential_ranks": diff_ranks,
        "harmonic_free_ranks": planted,
    }
    return cx, plan
