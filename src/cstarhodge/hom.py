"""Adjointable module maps as matrices over the algebra.

A morphism T: A^m -> A^n is an m x n matrix (t_ij) of algebra elements acting
on the right:

    (T u)_j = sum_i u_i t_ij

Right multiplication commutes with the left algebra action, so every such map
is automatically A-linear, and its adjoint for the A-valued inner product is
the entrywise-starred transpose.

A map is stored per algebra block.  Over A = sum_b M_{n_b}, T is exactly
one complex (m*n_b) x (n*n_b) matrix R_b per block (``Morphism.mats``),
with entry t_ij's block at R_b.reshape(m, n_b, n, n_b)[i, :, j, :]
(``_entry_view``).  A vector's row matrix U_b maps to U_b R_b,
composition is one matrix product per block and the adjoint is the
conjugate transpose of each R_b.
Flattening each module by ModuleVector.vec turns T into its dense shadow
sum_b I_{n_b} (x) R_b^T, so the shadow's singular values are those of the
R_b, each repeated n_b times, and its pseudoinverse is the module map with
blocks pinv(R_b).  Every rank decision is rank_rule's: keep the values
above cutoff times the largest value over all blocks.  A map's
values-only spectra, one SVD per block, are cached on the map, and so are
its kept singular triples (kept_svd), one thin SVD per block that keeps a
value, which the pseudoinverse and chain's parametrix share.  The
functions on per-block arrays (..., rows, cols) serve a single map and a
stack of equal-shape maps alike: a stack (torus modes, symbol samples)
takes one batched SVD per block and never becomes Morphisms.  A residual
that only has to stay below a limit goes through certified_norms: its
largest blockwise Frobenius norm, an upper bound on the operator norm
from one einsum per block, and the exact SVD value only where that bound
does not already pass, so every verdict is the exact one.  A map between
projective modules must not leak outside them, R_b = P_source,b R_b
P_target,b (projection_residuals).  The shadow (``embed``) and its
pullback ``morphism_from_concrete`` stay as the oracles the tests check
these numerics against.
"""

from __future__ import annotations

import math

import numpy as np

from .algebra import AlgebraElement, _freeze
from .errors import SpecMismatch
from .module import ModuleSpec, ModuleVector

__all__ = [
    "Morphism",
    "block_singular_values",
    "certified_norms",
    "identity_morphism",
    "merged_singular_values",
    "morphism_from_concrete",
    "projection_residuals",
    "random_morphism",
    "rank_rule",
    "singular_rank",
]


def _entry_view(mat: np.ndarray, m: int, n: int, nb: int) -> np.ndarray:
    """R_b of a map A^m -> A^n as an array (m, nb, n, nb); [i, :, j, :] is entry (i, j)."""
    return mat.reshape(m, nb, n, nb)


def block_singular_values(mats) -> list:
    """One values-only SVD per block of arrays (..., rows, cols); an empty block runs none.

    A map's R_b has no leading axis; a stack of equal-shape summands (torus
    modes, symbol samples) has one, so the whole stack takes one batched SVD.
    """
    return [
        np.linalg.svd(r, compute_uv=False) if min(r.shape[-2:]) else np.zeros(r.shape[:-2] + (0,))
        for r in mats
    ]


def merged_singular_values(block_values, sizes) -> np.ndarray:
    """Shadow singular values from each block's values: n_b copies each, descending on the last axis."""
    merged = np.concatenate([np.repeat(s, nb, axis=-1) for nb, s in zip(sizes, block_values)], axis=-1)
    return -np.sort(-merged, axis=-1)


def _largest_singular(mats) -> np.ndarray:
    """Operator norm of each map in per-block arrays (..., rows, cols), over all blocks."""
    tops = [s[..., 0] for s in block_singular_values(mats) if s.shape[-1]]
    return np.max(tops, axis=0) if tops else np.zeros(mats[0].shape[:-2])


_EPS = float(np.finfo(float).eps)

# Below this a Frobenius bound's squares may have fallen under the smallest
# normal number, where they keep only an absolute precision: about 1.0e-146.
_TINY_BOUND = math.sqrt(float(np.finfo(float).tiny) / _EPS)

# A bound passes only below limit * (1 - 4 eps).  Where the limit is
# tol * scale and the verdict reads value / scale <= tol, a passing bound
# then passes that division too, whichever way either product rounds.
_LIMIT_SHRINK = 1.0 - 4 * _EPS


def _roundoff_factor(rows: int, cols: int) -> float:
    """Headroom that keeps a computed Frobenius norm at or above the SVD's own value.

    The k = 2 rows cols squares of the real view are summed with a relative
    error below k eps / 2, the square root adds half an ulp, and the SVD's
    largest value carries its own error of order max(rows, cols) eps, for
    which 8 max(rows, cols) eps leaves room.  On rank-1 blocks, where the two
    norms agree in exact arithmetic, the raw Frobenius norm comes out up to
    4 ulp below the SVD's value at 8 x 8 and 13 ulp at 72 x 72.
    """
    return 1.0 + (2 * rows * cols + 8 * max(rows, cols)) * _EPS


def certified_norms(mats, limit) -> tuple:
    """(values, exact): each map's operator norm bound that decides norm <= limit as the SVD does.

    mats are per-block complex arrays (..., rows, cols) and limit broadcasts
    over the leading axes.  A map's value is its largest blockwise Frobenius
    norm (||R||_2 <= ||R||_F), one einsum per block over the real view,
    times _roundoff_factor, so it is never below the SVD's value.  A map
    takes the exact path, _largest_singular, where that bound is not finite,
    exceeds limit * _LIMIT_SHRINK, or lies below _TINY_BOUND while some
    entry is nonzero (squares that underflowed).  exact marks those maps and
    the all-zero maps, whose bound, 0, is their norm.  So a value passes the
    limit only where the operator norm does, and a failing value is
    _largest_singular's bit for bit.
    """
    lead = mats[0].shape[:-2]
    items = math.prod(lead)
    flats, bound = [], None
    for r in mats:
        rows, cols = r.shape[-2:]
        flat = np.ascontiguousarray(r).reshape(items, rows * cols).view(float)
        flats.append(flat)
        b = np.sqrt(np.einsum("ij,ij->i", flat, flat))
        b *= _roundoff_factor(rows, cols)
        bound = b if bound is None else np.maximum(bound, b, out=bound)
    # the decision runs on Python floats: a stack holds a handful of maps
    values = bound.tolist()
    if isinstance(limit, np.ndarray) and limit.ndim:
        limits = np.broadcast_to(limit, lead).ravel().tolist()
    else:
        limits = [float(limit)] * items
    exact = [not (_TINY_BOUND <= v <= lim * _LIMIT_SHRINK and v < math.inf) for v, lim in zip(values, limits)]
    # a zero bound is the norm unless squares underflowed
    svd = [k for k, e in enumerate(exact) if e and (values[k] != 0 or any(f[k].any() for f in flats))]
    if svd:
        norms = _largest_singular([r.reshape((items,) + r.shape[-2:])[svd] for r in mats])
        for k, v in zip(svd, norms.tolist()):
            values[k] = v
    return np.array(values).reshape(lead), np.array(exact, dtype=bool).reshape(lead)


def projection_residuals(mats, source: ModuleSpec, target: ModuleSpec, norms, tol: float = 1e-9):
    """||R - P_source R P_target|| / max(1, ||R||) for maps in per-block arrays (..., rows, cols).

    norms holds the maps' operator norms (...).  The residual's norm is
    certified_norms' against the limit tol * max(1, ||R||): a Frobenius
    bound where that passes, else the operator norm over all blocks, so a
    value above tol is exact.  A free module's projection is the identity,
    so maps between free modules give zeros without any product.
    """
    if source.projection is None and target.projection is None:
        return np.zeros(np.shape(norms))
    wrapped = mats
    if source.projection is not None:
        wrapped = [p @ r for p, r in zip(source.projection, wrapped)]
    if target.projection is not None:
        wrapped = [r @ p for r, p in zip(wrapped, target.projection)]
    scale = np.maximum(1.0, norms)
    return certified_norms([r - w for r, w in zip(mats, wrapped)], tol * scale)[0] / scale


def rank_rule(spectra, sizes, cutoff: float) -> tuple:
    """(rank, margin, kept): the one rank decision, on descending per-block spectra (..., k_b).

    A value is kept where it exceeds cutoff * smax, smax the largest value
    over all blocks, and the cutoff is positive; kept[b] counts block b's
    kept values and rank = sum n_b kept[b] (sizes holds the n_b) is the
    shadow's.  margin says how decisively the values split: the least over
    the nonzero values of s / thresh for a kept one and thresh / s for a
    dropped one, inf for empty or all-zero spectra and where a kept value's
    threshold underflows to 0.  Leading axes give arrays, each item cut at
    its own largest value; 1-D spectra give ints and a float from a
    plain-Python loop (cheaper than numpy's per-call overhead on a handful
    of values), bit for bit the stacked rule's.
    """
    spectra = [np.asarray(s, dtype=float) for s in spectra]
    if all(s.ndim == 1 for s in spectra):
        return _spectra_rank([s.tolist() for s in spectra], sizes, cutoff)
    values = np.concatenate(spectra, axis=-1)
    thresh = cutoff * values.max(axis=-1, initial=0.0)[..., None]
    kept = [np.add.reduce(s > thresh, axis=-1) for s in spectra]
    # s / thresh of a kept value and thresh / s of a dropped one, each the
    # larger of the two; a zero value (and so a zero spectrum) stays inf, and
    # a zero threshold or an overflowing ratio gives inf without a warning
    ratios = np.empty_like(values)
    ratios.fill(np.inf)
    with np.errstate(divide="ignore", over="ignore"):
        np.divide(thresh, values, out=ratios, where=values > 0)
        np.divide(values, thresh, out=ratios, where=values > thresh)
    margin = np.minimum.reduce(ratios, axis=-1, initial=np.inf)
    return sum(nb * k for nb, k in zip(sizes, kept)), margin, kept


def _spectra_rank(lists: list, sizes, cutoff: float) -> tuple:
    """rank_rule of 1-D spectra given as lists of floats."""
    thresh = cutoff * max((values[0] for values in lists if values), default=0.0)
    rank, margin, kept = 0, math.inf, []
    for values, nb in zip(lists, sizes):
        count = 0
        for v in values:
            if v > thresh:
                count += 1
                ratio = v / thresh if thresh > 0 else math.inf
            elif v > 0:
                ratio = thresh / v
            else:
                continue
            if ratio < margin:
                margin = ratio
        kept.append(count)
        rank += nb * count
    return rank, margin, kept


def singular_rank(svals, cutoff: float):
    """(rank, margin) of descending spectra (..., k): rank_rule on one block of size 1."""
    return rank_rule([svals], (1,), cutoff)[:2]


class Morphism:
    """Module map from source to target: one matrix R_b per algebra block."""

    def __init__(self, source: ModuleSpec, target: ModuleSpec, mats):
        if source.algebra != target.algebra:
            raise SpecMismatch("source and target live over different algebras")
        self.source = source
        self.target = target
        self.algebra = source.algebra
        mats = tuple(mats)
        sizes = self.algebra.block_sizes
        if len(mats) != len(sizes):
            raise SpecMismatch(f"{len(mats)} block matrices, expected {len(sizes)}")
        checked = []
        for nb, mat in zip(sizes, mats):
            mat = np.array(mat, dtype=complex, order="C")
            if mat.shape != (source.rank * nb, target.rank * nb):
                raise SpecMismatch(
                    f"block matrix of shape {mat.shape}, expected "
                    f"{(source.rank * nb, target.rank * nb)}"
                )
            checked.append(_freeze(mat))
        self.mats = tuple(checked)
        self._embed = None
        self._svals = None
        self._block_svals = None
        self._triples: dict = {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_entries(cls, source: ModuleSpec, target: ModuleSpec, rows) -> "Morphism":
        """Build from an m x n nested list of AlgebraElement, m = source rank."""
        spec = source.algebra
        m, n = source.rank, target.rank
        if len(rows) != m:
            raise SpecMismatch(f"expected {m} rows, got {len(rows)}")
        mats = [np.zeros((m * nb, n * nb), dtype=complex) for nb in spec.block_sizes]
        views = [_entry_view(r, m, n, nb) for nb, r in zip(spec.block_sizes, mats)]
        for i, row in enumerate(rows):
            if len(row) != n:
                raise SpecMismatch(f"row {i} has {len(row)} entries, expected {n}")
            for j, e in enumerate(row):
                if e.spec != spec:
                    raise SpecMismatch("entry over a different algebra spec")
                for view, eb in zip(views, e.blocks):
                    view[i, :, j, :] = eb
        return cls(source, target, mats)

    @classmethod
    def zero(cls, source: ModuleSpec, target: ModuleSpec) -> "Morphism":
        return cls(
            source,
            target,
            [
                np.zeros((source.rank * nb, target.rank * nb), dtype=complex)
                for nb in source.algebra.block_sizes
            ],
        )

    def entry(self, i: int, j: int) -> AlgebraElement:
        m, n = self.source.rank, self.target.rank
        return AlgebraElement(
            self.algebra,
            [
                _entry_view(r, m, n, nb)[i, :, j, :]
                for nb, r in zip(self.algebra.block_sizes, self.mats)
            ],
        )

    # -- algebraic operations ----------------------------------------------------

    def __call__(self, u: ModuleVector) -> ModuleVector:
        if u.module != self.source:
            raise SpecMismatch("vector is not in the source module")
        return ModuleVector(self.target, [ub @ r for ub, r in zip(u.rows, self.mats)])

    def adjoint(self) -> "Morphism":
        """Adjoint for the A-valued inner products: entries (T*)_ji = (t_ij)*."""
        return Morphism(self.target, self.source, [r.conj().T for r in self.mats])

    def __matmul__(self, other: "Morphism") -> "Morphism":
        """self after other: (self @ other)(u) = self(other(u))."""
        if not isinstance(other, Morphism):
            return NotImplemented
        if other.target != self.source:
            raise SpecMismatch("composition needs other.target == self.source")
        return Morphism(
            other.source, self.target, [o @ r for o, r in zip(other.mats, self.mats)]
        )

    def _blockwise(self, other: "Morphism", op, what: str) -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise SpecMismatch(f"morphism {what} needs matching source and target")
        return Morphism(self.source, self.target, [op(x, y) for x, y in zip(self.mats, other.mats)])

    def __add__(self, other: "Morphism") -> "Morphism":
        return self._blockwise(other, np.add, "sum")

    def __sub__(self, other: "Morphism") -> "Morphism":
        return self._blockwise(other, np.subtract, "difference")

    def __mul__(self, c) -> "Morphism":
        c = complex(c)
        return Morphism(self.source, self.target, [c * x for x in self.mats])

    __rmul__ = __mul__

    # -- concrete shadow ---------------------------------------------------------

    def embed(self) -> np.ndarray:
        """Shadow matrix of shape (target.rank*d, source.rank*d).

        The (j, i) block of size d x d is right multiplication by t_ij, i.e.
        the direct sum over algebra blocks of kron(I_nb, t_ij_block^T) in the
        row-major vec convention.  The numerics below never build it; it is
        the oracle they are tested against.
        """
        if self._embed is None:
            spec = self.algebra
            d = spec.dim
            m, n = self.source.rank, self.target.rank
            out = np.zeros((n * d, m * d), dtype=complex)
            view = out.reshape(n, d, m, d)
            for nb, off, mat in zip(spec.block_sizes, spec.block_offsets, self.mats):
                # kron(I_nb, t^T) written as nb diagonal slices, vectorized in (i, j)
                piece = mat.T.reshape(n, nb, m, nb)  # [j, r, i, c] = t_ij[c, r]
                for k in range(nb):
                    sl = slice(off + k * nb, off + (k + 1) * nb)
                    view[:, sl, :, sl] = piece
            self._embed = _freeze(out)
        return self._embed

    # -- per-block numerics ------------------------------------------------------

    def singular_values(self) -> np.ndarray:
        """Singular values of the shadow, descending: each block's values n_b times; cached."""
        if self._svals is None:
            self._block_svals = block_singular_values(self.mats)
            self._svals = _freeze(merged_singular_values(self._block_svals, self.algebra.block_sizes))
        return self._svals

    def norm(self) -> float:
        s = self.singular_values()
        return float(s[0]) if s.size else 0.0

    def concrete_rank(self, cutoff: float = 1e-10) -> int:
        return self.rank_with_margin(cutoff)[0]

    def rank_with_margin(self, cutoff: float = 1e-10):
        self.singular_values()
        return rank_rule(self._block_svals, self.algebra.block_sizes, cutoff)[:2]

    def kept_svd(self, cutoff: float = 1e-10) -> list:
        """Per block, R_b's kept singular triples (U, S, Vh), or None where it keeps none; cached.

        How many values each block keeps is rank_rule's on the cached
        values-only spectra, so n_b times the counts sums to
        concrete_rank(cutoff); the triples come from one thin SVD of each
        block that keeps any.  chain's parametrix and pseudoinverse share
        them, so neither result depends on which of the two ran first.
        """
        if cutoff not in self._triples:
            self.singular_values()
            counts = rank_rule(self._block_svals, self.algebra.block_sizes, cutoff)[2]
            svds = [np.linalg.svd(r, full_matrices=False) if k else None for r, k in zip(self.mats, counts)]
            self._triples[cutoff] = [
                None if f is None else (f.U[:, :k], f.S[:k], f.Vh[:k]) for f, k in zip(svds, counts)
            ]
        return self._triples[cutoff]

    # -- pseudoinverse and projections --------------------------------------------

    def pseudoinverse(self, cutoff: float = 1e-10) -> "Morphism":
        """Moore-Penrose pseudoinverse from the kept singular triples (kept_svd).

        A block that keeps no value, among them a block with no rows or no
        columns, which takes no SVD, contributes the zero map back.
        """
        mats = [
            np.zeros(r.shape[::-1], dtype=complex) if t is None else (t[2].conj().T / t[1]) @ t[0].conj().T
            for r, t in zip(self.mats, self.kept_svd(cutoff))
        ]
        return Morphism(self.target, self.source, mats)

    def range_decomposition(self, cutoff: float = 1e-10):
        """Pair of complementary projections (onto Ker T, onto Rng T*)."""
        coimage = self.pseudoinverse(cutoff) @ self
        return identity_morphism(self.source) - coimage, coimage

    # -- diagnostics ---------------------------------------------------------------

    def respects_projections(self, tol: float = 1e-9) -> bool:
        """T = P_source T P_target within tol, relative: T does not leak outside its modules."""
        return bool(projection_residuals(self.mats, self.source, self.target, self.norm(), tol) <= tol)

    def __repr__(self):
        return (
            f"Morphism({self.source.rank} -> {self.target.rank} "
            f"over {self.algebra.block_sizes})"
        )


def identity_mats(module: ModuleSpec):
    """The identity's R_b per block: the defining projection if present, else 1."""
    if module.projection is not None:
        return module.projection
    return [np.eye(module.rank * nb, dtype=complex) for nb in module.algebra.block_sizes]


def identity_morphism(module: ModuleSpec) -> Morphism:
    """Identity of the module: the defining projection if present, else 1."""
    return Morphism(module, module, identity_mats(module))


def morphism_from_concrete(
    source: ModuleSpec, target: ModuleSpec, mat: np.ndarray
) -> Morphism:
    """Pull a shadow matrix back to an algebra matrix.

    This is the orthogonal projection (in the Frobenius sense) onto the space
    of right-multiplication operators: cross terms between algebra blocks are
    dropped and the diagonal kron structure is recovered by averaging the
    repeated copies.  Matrices that already commute with the left action are
    reproduced up to roundoff.
    """
    spec = source.algebra
    d = spec.dim
    m, n = source.rank, target.rank
    mat = np.asarray(mat, dtype=complex)
    if mat.shape != (n * d, m * d):
        raise SpecMismatch(f"concrete matrix of shape {mat.shape}, expected {(n * d, m * d)}")
    view = mat.reshape(n, d, m, d)
    mats = []
    for nb, off in zip(spec.block_sizes, spec.block_offsets):
        acc = np.zeros((n, nb, m, nb), dtype=complex)
        for k in range(nb):
            sl = slice(off + k * nb, off + (k + 1) * nb)
            acc += view[:, sl, :, sl]
        # acc[j, r, i, c] averages the copies of t_ij[c, r], i.e. of R_b^T
        mats.append(acc.reshape(n * nb, m * nb).T / nb)
    return Morphism(source, target, mats)


def random_morphism(
    source: ModuleSpec,
    target: ModuleSpec,
    rng: np.random.Generator,
    scale: float = 1.0,
) -> Morphism:
    """Morphism with independent Gaussian algebra entries."""
    spec = source.algebra
    m, n = source.rank, target.rank
    mats = []
    for nb in spec.block_sizes:
        # entries drawn as (i, j, row, col), then laid out as R_b
        z = rng.standard_normal((m, n, nb, nb)) + 1j * rng.standard_normal(
            (m, n, nb, nb)
        )
        mats.append((scale * z / np.sqrt(2.0)).transpose(0, 2, 1, 3).reshape(m * nb, n * nb))
    t = Morphism(source, target, mats)
    if source.projection is not None:
        t = t @ identity_morphism(source)
    if target.projection is not None:
        t = identity_morphism(target) @ t
    return t
