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
(``_entry_view``, which serial's matrix reader and writer share).  A
vector's row matrix U_b maps to U_b R_b, composition is one matrix product
per block and the adjoint is the conjugate transpose of each R_b.
Flattening each module by ModuleVector.vec turns T into its dense shadow
sum_b I_{n_b} (x) R_b^T, so the shadow's singular values are those of the
R_b, each repeated n_b times, and its pseudoinverse is the module map with
blocks pinv(R_b).  Rank decisions cut at a fraction of the largest singular
value over all blocks.  The shadow
(``embed``) and its pullback ``morphism_from_concrete`` stay as the oracles
the tests check these numerics against.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, _freeze
from .errors import SpecMismatch
from .module import ModuleSpec, ModuleVector

__all__ = [
    "Morphism",
    "identity_morphism",
    "morphism_from_concrete",
    "random_morphism",
    "singular_rank",
]


def _entry_view(mat: np.ndarray, m: int, n: int, nb: int) -> np.ndarray:
    """R_b of a map A^m -> A^n as an array (m, nb, n, nb); [i, :, j, :] is entry (i, j)."""
    return mat.reshape(m, nb, n, nb)


def singular_rank(svals: np.ndarray, cutoff: float):
    """Rank decision on a singular spectrum with a relative cutoff.

    Returns (rank, margin) where margin says how decisively the values split:
    the factor by which the smallest kept value clears cutoff*smax and the
    largest dropped value stays below it.  margin = inf for an empty or
    unambiguous split (all kept or all dropped with room to spare is still
    reported by its ratio; only an empty spectrum gives inf).
    """
    svals = np.asarray(svals, dtype=float)
    if svals.size == 0 or svals[0] <= 0.0:
        return 0, float("inf")
    thresh = cutoff * svals[0]
    rank = int(np.count_nonzero(svals > thresh))
    margins = []
    if rank > 0:
        margins.append(svals[rank - 1] / thresh)
    if rank < svals.size and svals[rank] > 0.0:
        margins.append(thresh / svals[rank])
    return rank, (min(margins) if margins else float("inf"))


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

    def __add__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise SpecMismatch("morphism sum needs matching source and target")
        return Morphism(
            self.source,
            self.target,
            [x + y for x, y in zip(self.mats, other.mats)],
        )

    def __sub__(self, other: "Morphism") -> "Morphism":
        if self.source != other.source or self.target != other.target:
            raise SpecMismatch("morphism difference needs matching source and target")
        return Morphism(
            self.source,
            self.target,
            [x - y for x, y in zip(self.mats, other.mats)],
        )

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

    def _block_svds(self, compute_uv: bool) -> list:
        """SVD of each R_b, filling the merged singular value cache on the way."""
        svds = [
            np.linalg.svd(r, full_matrices=False, compute_uv=compute_uv)
            for r in self.mats
        ]
        if self._svals is None:
            per_block = [f.S if compute_uv else f for f in svds]
            merged = np.concatenate(
                [np.repeat(s, nb) for nb, s in zip(self.algebra.block_sizes, per_block)]
            )
            self._svals = _freeze(-np.sort(-merged))
        return svds

    def singular_values(self) -> np.ndarray:
        """Singular values of the shadow, descending: each block's values n_b times."""
        if self._svals is None:
            self._block_svds(compute_uv=False)
        return self._svals

    def norm(self) -> float:
        s = self.singular_values()
        return float(s[0]) if s.size else 0.0

    def concrete_rank(self, cutoff: float = 1e-10) -> int:
        rank, _ = singular_rank(self.singular_values(), cutoff)
        return rank

    def rank_with_margin(self, cutoff: float = 1e-10):
        return singular_rank(self.singular_values(), cutoff)

    # -- pseudoinverse and projections --------------------------------------------

    def pseudoinverse(self, cutoff: float = 1e-10) -> "Morphism":
        """Moore-Penrose pseudoinverse, singular values at or below cutoff*smax dropped.

        The pseudoinverse of each R_b is taken with the threshold set by the
        largest singular value over all blocks, so a block whose values all
        sit below it contributes zero.
        """
        svds = self._block_svds(compute_uv=True)
        s = self.singular_values()
        if s.size == 0 or s[0] <= 0.0:
            return Morphism.zero(self.target, self.source)
        thresh = cutoff * s[0]
        mats = []
        for u, sb, vh in svds:
            keep = sb > thresh
            mats.append((vh[keep].conj().T / sb[keep]) @ u[:, keep].conj().T)
        return Morphism(self.target, self.source, mats)

    def kernel_projection(self, cutoff: float = 1e-10) -> "Morphism":
        """Orthogonal projection onto the kernel: module identity minus T+T."""
        return identity_morphism(self.source) - self.pseudoinverse(cutoff) @ self

    def range_decomposition(self, cutoff: float = 1e-10):
        """Pair of complementary projections (onto Ker T, onto Rng T*)."""
        coimage = self.pseudoinverse(cutoff) @ self
        return identity_morphism(self.source) - coimage, coimage

    # -- diagnostics ---------------------------------------------------------------

    def respects_projections(self, tol: float = 1e-9) -> bool:
        """When source or target are projective, T must not leak outside them."""
        restricted = self @ identity_morphism(self.source)
        wrapped = identity_morphism(self.target) @ restricted
        return (wrapped - restricted).norm() <= tol

    def __repr__(self):
        return (
            f"Morphism({self.source.rank} -> {self.target.rank} "
            f"over {self.algebra.block_sizes})"
        )


def identity_morphism(module: ModuleSpec) -> Morphism:
    """Identity of the module: the defining projection if present, else 1."""
    if module.projection is not None:
        return Morphism(module, module, module.projection)
    return Morphism(
        module,
        module,
        [np.eye(module.rank * nb, dtype=complex) for nb in module.algebra.block_sizes],
    )


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
