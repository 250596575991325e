"""Chain complexes of Hilbert modules: Laplacians, parametrices, Hodge theory.

A complex is a finite list of modules over one algebra together with
differentials D_i: G_i -> G_{i+1} satisfying D_{i+1} D_i = 0.  The degree-i
Laplacian is

    L_i = D_{i-1} D_{i-1}* + D_i* D_i

with no term beyond the ends.  Since D_i D_{i-1} = 0, L_i splits along
Rng D_{i-1} + Rng D_i* + Ker L_i, so its Moore-Penrose pseudoinverse g is
the sum of the two differentials' squared pseudoinverses and the harmonic
projection p is 1 minus the projections onto those two ranges.  Both are
built from each differential's kept singular triples (Morphism.kept_svd):
the rank of D_i is decided once, by hom.rank_rule on D_i's own spectrum,
and one thin SVD per block of D_i serves degrees i and i + 1; no
Laplacian is decomposed.  g and p form a
parametrix: g L + p = 1, L g + p = 1, L p = 0, and additionally g p = 0 so
p is idempotent.  None of these holds by construction, so each residual
checks the rank decisions and the ranges' orthogonality; L p = 0 and
g L + p = 1 also bound L's spectrum on either side of a gap, which
certifies that rank p is L's nullity (laplacian_gap).  The parametrix
intertwines the differentials (p' D = 0, D g = g' D, D L = L' D), harmonic
vectors represent cohomology classes bijectively, and every vector splits as
harmonic + exact + coexact.  All of this is checked numerically by the test
suite against the concrete shadow matrices.

The identities are computed on per-block arrays, not on composed Morphisms:
Parametrix.residuals stacks a degree's five residuals into one (5, n, n)
array per algebra block and
verify_chain_map a differential's four into one (4, rows, cols) array.  A
map product x y is R_y R_x per block, as in Morphism.__matmul__.  Each
stack, like the D D = 0 products, goes through hom.certified_norms against
its tolerance: a residual that passes may be reported as its Frobenius
bound, one einsum per block, and only a residual whose bound does not pass
takes a values-only SVD, so its value is the composition's operator norm
bit for bit and every verdict is the exact one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec
from .errors import (
    DegreeMismatch,
    IndexOutOfRange,
    NotAComplex,
    NotACocycle,
    SpecMismatch,
)
from .hom import Morphism, certified_norms, identity_mats, identity_morphism, random_morphism, rank_rule
from .module import ModuleSpec, ModuleVector, inner_product

__all__ = [
    "ChainComplex",
    "laplacian_mats",
    "require_squares",
    "square_residual_values",
    "Parametrix",
    "HodgeSplit",
    "HodgeIsomorphism",
    "HodgeReport",
    "laplacian_gap",
    "verify_chain_map",
    "block_free_rank",
    "free_rank_of_projection",
    "random_complex",
    "random_unitary_morphism",
]


def laplacian_mats(ins, outs) -> list:
    """Per block, R_in* R_in + R_out R_out*: a degree's Laplacian from its two maps.

    ins and outs hold the incoming and outgoing maps' arrays (..., rows, cols),
    one per algebra block, with a leading axis for a stack of equal-shape
    summands.  A map through the zero module (an end of a complex) adds no term.
    """
    terms = [[r.conj().swapaxes(-1, -2) @ r for r in ins]] if ins[0].shape[-2] else []
    if outs[0].shape[-1]:
        terms.append([r @ r.conj().swapaxes(-1, -2) for r in outs])
    if not terms:  # a complex of one module
        return [np.zeros(r.shape[:-2] + 2 * r.shape[-1:], dtype=complex) for r in ins]
    return [sum(t[1:], t[0]) for t in zip(*terms)]


def square_residual_values(diffs, norms, tol: float = 1e-9) -> tuple:
    """(raw, relative, exact) residual of D_{i+1} D_i = 0 for each consecutive pair i.

    diffs[i] holds D_i's arrays (..., rows, cols), one per algebra block,
    with a leading axis for a stack of equal-shape summands, and norms[i]
    its operator norm (...).  raw is ||D_{i+1} D_i|| from one batched
    product per block through certified_norms with the limit
    tol * max(1, ||D_{i+1}|| ||D_i||), relative is raw divided by that max;
    exact marks the values that are operator norms, the others being
    Frobenius bounds with relative <= tol.  All three are lists over the pairs.
    """
    raw, rel, exact = [], [], []
    for low, high, n_low, n_high in zip(diffs, diffs[1:], norms, norms[1:]):
        scale = np.maximum(1.0, n_high * n_low)
        value, is_exact = certified_norms([a @ b for a, b in zip(low, high)], tol * scale)
        raw.append(value)
        rel.append(value / scale)
        exact.append(is_exact)
    return raw, rel, exact


def require_squares(raw, rel, tol: float):
    """Raise NotAComplex when a relative residual exceeds tol.

    raw and rel are square_residual_values' lists.  The error names the
    first failing summand, then its first failing pair; with a leading axis
    its index is that summand's.
    """
    if not rel:
        return
    bad = (np.stack(rel) > tol).reshape(len(rel), -1)
    failing = np.flatnonzero(bad.any(axis=0))
    if failing.size:
        j = int(failing[0])
        i = int(np.flatnonzero(bad[:, j])[0])
        raise NotAComplex(
            f"differentials {i + 1} after {i} compose to norm {raw[i].reshape(-1)[j]:.3e}, "
            "not a complex",
            index=j if np.ndim(rel[0]) else None,
        )


def block_free_rank(dims, sizes, tol: float = 1e-8) -> Optional[int]:
    """Free rank of a submodule from its dimension dims[b] as R_b coordinates.

    dims[b] / n_b is the free rank of the submodule in algebra block b when
    that submodule is free.  Returns the common integer when every block
    agrees, else None.
    """
    ratios = [float(d) / nb for d, nb in zip(dims, sizes)]
    candidate = int(round(ratios[0]))
    if candidate < 0 or any(abs(r - candidate) > tol for r in ratios):
        return None
    return candidate


def free_rank_of_projection(p: Morphism, tol: float = 1e-8) -> Optional[int]:
    """Free rank of a projection's range, whose dimension in block b is trace(R_b)."""
    return block_free_rank([np.trace(r).real for r in p.mats], p.algebra.block_sizes, tol)


# Parametrix.residuals' keys, in the order of its stack
PARAMETRIX_RESIDUALS = (
    "green_laplacian_plus_projector",
    "laplacian_green_plus_projector",
    "laplacian_kills_projector",
    "green_kills_projector",
    "projector_idempotent",
)

# verify_chain_map's keys per differential, in the order of its stack
CHAIN_MAP_RESIDUALS = (
    "projector_after_differential",
    "green_commutes",
    "laplacian_commutes",
    "differential_after_projector",
)


def _require_on(module: ModuleSpec, maps, what: str):
    """Raise SpecMismatch unless every map is an endomorphism of module."""
    if any(f.source != module or f.target != module for f in maps):
        raise SpecMismatch(f"{what} does not act on its module")


@dataclass(frozen=True)
class Parametrix:
    """Green operator and harmonic projection for one Laplacian.

    ChainComplex.parametrix builds green and projector separately, from
    the kept singular triples of the degree's two differentials; the
    residuals compare them with the Laplacian, which is formed on its own.
    """

    degree: int
    laplacian: Morphism
    green: Morphism
    projector: Morphism

    def certified_residuals(self, tol: float = 1e-8) -> tuple:
        """(values, exact) of gL + p - 1, Lg + p - 1, Lp, gp and p^2 - p, keyed by name.

        All three maps must be endomorphisms of the Laplacian's module.  Per
        algebra block the five residual matrices are one (5, n, n) stack; a
        map product x y is R_y R_x per block.  Each value is
        hom.certified_norms' against tol: a Frobenius bound at most tol, or
        where exact[name] is True the operator norm from one values-only
        SVD per block.
        """
        lap, g, p = self.laplacian, self.green, self.projector
        _require_on(lap.source, (lap, g, p), f"parametrix of degree {self.degree}")
        stacks = [
            np.stack([rl @ rg + rp - one, rg @ rl + rp - one, rp @ rl, rp @ rg, rp @ rp - rp])
            for rl, rg, rp, one in zip(lap.mats, g.mats, p.mats, identity_mats(lap.source))
        ]
        values, exact = certified_norms(stacks, tol)
        names = PARAMETRIX_RESIDUALS
        return dict(zip(names, values.tolist())), dict(zip(names, exact.tolist()))

    def residuals(self, tol: float = 1e-8) -> dict:
        """The values of certified_residuals(tol): at most tol as a bound, or exact."""
        return self.certified_residuals(tol)[0]

    def verify(self, tol: float = 1e-8) -> bool:
        """Parametrix validity: the two resolvent identities and L p = 0.

        g p = 0 (hence idempotence of p) holds for the pseudoinverse
        construction but is not required of a user-supplied parametrix.
        """
        r = self.residuals(tol)
        keys = [
            "green_laplacian_plus_projector",
            "laplacian_green_plus_projector",
            "laplacian_kills_projector",
        ]
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
    """Cohomology bookkeeping for one degree of a complex.

    harmonic_dim is the rank of the built projector (the sum over blocks of
    n_b trace R_p,b) and cohomology_dim is dim - rank D_i - rank D_{i-1};
    both rest on the same rank decisions, so they agree on every input.
    laplacian_nullity is the check on those decisions: harmonic_dim where
    laplacian_gap = (upper, lower) certifies that L has that many
    eigenvalues at most upper and all others at least lower > upper, else
    None; dims_match compares it with cohomology_dim (laplacian_gap).
    rank_margin is the smaller of the two differentials' margins
    (hom.rank_rule).
    residuals are the parametrix identities of this degree alone, held to
    the report's tol; residual_exact[name] is True where the value is the
    operator norm and False where it is a Frobenius bound that passes.  The
    identities between neighbouring degrees are verify_chain_map's.
    """

    degree: int
    module_dim: int
    harmonic_dim: int
    cohomology_dim: int
    laplacian_nullity: Optional[int]
    laplacian_gap: tuple
    dims_match: bool
    free_rank: Optional[int]
    rank_margin: float
    residuals: dict
    residual_exact: dict
    notes: tuple = field(default_factory=tuple)


def laplacian_gap(par: Parametrix, residuals: dict) -> tuple:
    """(upper, lower): L has rank p eigenvalues <= upper and the rest >= lower.

    residuals are par's, each an upper bound on its operator norm.  By
    Courant-Fischer on p's range, ||L p|| <= upper bounds rank p of L's
    eigenvalues; on the complement, x = g L x - (g L + p - 1) x gives
    ||L x|| >= (1 - ||g L + p - 1||) / ||g|| ||x||, with ||g|| bounded by
    its Frobenius norm (hom.certified_norms with no limit, so no SVD on a
    finite g).  Where upper < lower, L's nullity is rank p at any cut in
    between.  p is treated as the orthogonal projector that the p p = p
    residual checks it to be.
    """
    upper = residuals["laplacian_kills_projector"]
    resolvent = residuals["green_laplacian_plus_projector"]
    green = float(certified_norms(par.green.mats, np.inf)[0])
    if resolvent >= 1.0:
        lower = 0.0
    elif green == 0.0:
        lower = np.inf  # g L + p = 1 with g = 0: p is the identity
    else:
        lower = (1.0 - resolvent) / green
    return upper, float(lower)


class ChainComplex:
    """Modules G_0..G_L over one algebra with differentials squaring to zero."""

    def __init__(self, modules, differentials, tol: float = 1e-9):
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
        # D_{-1}, D_0, ..., D_{L-1}, D_L: zero maps through the zero module at the ends
        zero = ModuleSpec(algebra, 0)
        self._padded = [Morphism.zero(zero, modules[0]), *differentials, Morphism.zero(modules[-1], zero)]
        self._laplacians: dict = {}
        self._parametrices: dict = {}
        self._squares: dict = {}
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
        if -1 <= i <= self.top_degree:
            return self._padded[i + 1]
        raise IndexOutOfRange(f"differential index {i} outside -1..{self.top_degree}")

    def square_residuals(self, tol: float = 1e-9, strict: bool = False) -> list:
        """Norms of D_{i+1} D_i relative to the factor norms: a bound at most tol, or exact.

        square_residual_values' (raw, rel, exact) are kept per tol in _squares.
        """
        if tol not in self._squares:
            norms = [d.norm() for d in self.diffs]
            self._squares[tol] = square_residual_values([d.mats for d in self.diffs], norms, tol)
        raw, rel, _ = self._squares[tol]
        if strict:
            require_squares(raw, rel, tol)
        return [float(r) for r in rel]

    # -- Laplacian and parametrix ------------------------------------------------

    def laplacian(self, i: int) -> Morphism:
        if not 0 <= i <= self.top_degree:
            raise IndexOutOfRange(f"degree {i} outside 0..{self.top_degree}")
        if i not in self._laplacians:
            mod = self.modules[i]
            mats = laplacian_mats(self.differential(i - 1).mats, self.differential(i).mats)
            self._laplacians[i] = Morphism(mod, mod, mats)
        return self._laplacians[i]

    def parametrix(self, i: int, cutoff: float = 1e-10) -> Parametrix:
        """Green operator and harmonic projector of degree i from its differentials' kept triples.

        With D_{i-1} = U_in S_in Vh_in and D_i = U_out S_out Vh_out per block,
        cut to their kept values (Morphism.kept_svd, cached on the map, so
        both degrees of a differential share them), R_g = Vh_in* S_in^-2
        Vh_in + U_out S_out^-2 U_out* and R_p = 1 - Vh_in* Vh_in - U_out
        U_out*: the projections onto Rng D_{i-1} and Rng D_i* are taken out
        of the module's identity.  No Laplacian is decomposed, and no
        identity holds by construction.
        """
        key = (i, cutoff)
        if key not in self._parametrices:
            lap = self.laplacian(i)
            mod = self.modules[i]
            green, projector = [], []
            d_in, d_out = self.differential(i - 1), self.differential(i)
            for one, low, high in zip(identity_mats(mod), d_in.kept_svd(cutoff), d_out.kept_svd(cutoff)):
                g, p = np.zeros_like(one), one.copy()
                if low is not None:
                    _, s, vh = low
                    rows = vh.conj().T
                    g += (rows / s**2) @ vh
                    p -= rows @ vh
                if high is not None:
                    u, s, _ = high
                    cols = u.conj().T
                    g += (u / s**2) @ cols
                    p -= u @ cols
                green.append(g)
                projector.append(p)
            self._parametrices[key] = Parametrix(i, lap, Morphism(mod, mod, green), Morphism(mod, mod, projector))
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
        the side-by-side stack of the ops' R_b, past the values hom.rank_rule
        keeps; ops that are all zero leave the whole module.
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
        kept = rank_rule([f.S for f in svds], self.algebra.block_sizes, cutoff)[2]
        return [f.U[:, k:].conj().T @ q.conj().T for f, k, q in zip(svds, kept, frames)]

    def harmonic_basis(self, i: int, cutoff: float = 1e-10) -> list:
        """Orthonormal concrete basis of Ker L_i inside the module: the range
        of the parametrix's projector p.

        p is built from the differentials' kept singular triples, so the
        basis rests on the rank decisions cohomology_report counts, not on
        a cut of L's own spectrum.  Per block, the harmonic rows are the
        eigenvectors of the Hermitian R_p with eigenvalue above 1/2, written
        as rows (x R_p = x).  Each row x of block b gives n_b basis vectors,
        x written into one row of that block's row matrix at a time.
        """
        mod = self.modules[i]
        sizes = self.algebra.block_sizes
        basis = []
        for b, r in enumerate(self.parametrix(i, cutoff).projector.mats):
            w, v = np.linalg.eigh(r)
            for x in v[:, w > 0.5].conj().T:
                for a in range(sizes[b]):
                    vec_rows = mod._zero_rows()
                    vec_rows[b][a] = x
                    basis.append(ModuleVector(mod, vec_rows))
        return basis

    def kernel_intersection_check(self, i: int, cutoff: float = 1e-10) -> dict:
        """Ker L = Ker D intersected with Ker D_prev*, by dimension and residual.

        laplacian_nullity is cohomology_report's: the rank of p where a
        spectral gap of L certifies it, else None, which matches nothing.
        """
        d_out = self.differential(i)
        d_in_adj = self.differential(i - 1).adjoint()
        nullity_lap = self.cohomology_report(i, cutoff).laplacian_nullity
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
        """Dimensions, margins and parametrix residuals of degree i.

        The harmonic dimension is the rank of the built projector, read from
        its block traces, and it is L's nullity where the residuals L p = 0
        and g L + p = 1 leave a spectral gap (laplacian_gap).  The margin is
        the smaller of the two differentials' rank margins, the decisions p
        is built from.
        """
        mod_dim = self.modules[i].concrete_dim
        rank_in, margin_in = self.differential(i - 1).rank_with_margin(cutoff)
        rank_out, margin_out = self.differential(i).rank_with_margin(cutoff)
        cohomology_dim = (mod_dim - rank_out) - rank_in

        par = self.parametrix(i, cutoff)
        sizes = self.algebra.block_sizes
        harmonic_dim = int(round(sum(nb * np.trace(r).real for nb, r in zip(sizes, par.projector.mats))))
        free_rank = free_rank_of_projection(par.projector, tol)
        residuals, exact = par.certified_residuals(tol)
        gap = laplacian_gap(par, residuals)
        nullity = harmonic_dim if gap[0] < gap[1] else None
        return HodgeReport(
            degree=i,
            module_dim=mod_dim,
            harmonic_dim=harmonic_dim,
            cohomology_dim=cohomology_dim,
            laplacian_nullity=nullity,
            laplacian_gap=gap,
            dims_match=nullity == cohomology_dim,
            free_rank=free_rank,
            rank_margin=min(margin_in, margin_out),
            residuals=residuals,
            residual_exact=exact,
            notes=(
                "dimensions are concrete complex dimensions of the shadow",
                "ranges are closed at finite concrete dimension, so the "
                "cohomology quotient carries the induced norm topology",
            ),
        )


def verify_chain_map(complex_: ChainComplex, parametrices, tol: float = 1e-8) -> dict:
    """Residuals of the intertwining identities for a parametrix family.

    For every differential D_i the family must satisfy p_{i+1} D_i = 0,
    D_i g_i = g_{i+1} D_i, D_i L_i = L_{i+1} D_i and D_i p_i = 0.  This is
    the only place these identities are computed: per differential and
    algebra block the four residual matrices are one (4, rows, cols) stack,
    normed by hom.certified_norms against tol, and each degree's entry maps
    "exact" to {name: True where the value is the operator norm, False
    where it is a Frobenius bound at most tol}.  The maps of parametrices i
    and i + 1 must be endomorphisms of D_i's source and target, else
    SpecMismatch.  A LinAlgError from a differential's SVD names that
    differential.
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
    for i, d in enumerate(complex_.diffs):
        low, high = parametrices[i], parametrices[i + 1]
        _require_on(d.source, (low.laplacian, low.green, low.projector), f"parametrix of degree {i}")
        _require_on(d.target, (high.laplacian, high.green, high.projector), f"parametrix of degree {i + 1}")
        # p' D, D g - g' D, D L - L' D and D p; a map product x y is R_y R_x per block
        stacks = [
            np.stack([rd @ ph, gl @ rd - rd @ gh, ll @ rd - rd @ lh, pl @ rd])
            for rd, gl, ll, pl, gh, lh, ph in zip(
                d.mats,
                low.green.mats,
                low.laplacian.mats,
                low.projector.mats,
                high.green.mats,
                high.laplacian.mats,
                high.projector.mats,
            )
        ]
        try:
            values, exact = certified_norms(stacks, tol)
        except np.linalg.LinAlgError as e:
            raise np.linalg.LinAlgError(f"chain map at differential {i}: {e}") from e
        values = values.tolist()
        degrees.append({
            "degree": i,
            **dict(zip(CHAIN_MAP_RESIDUALS, values)),
            "exact": dict(zip(CHAIN_MAP_RESIDUALS, exact.tolist())),
        })
        worst = max(worst, *values)
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
