"""Finitely generated Hilbert modules over a block matrix algebra.

A module is A^m, or the submodule cut out by a self-adjoint idempotent
A-matrix acting on the right.  Vectors are m-tuples of algebra elements.
The A-valued inner product is

    (u, v) = sum_i v_i u_i*

which is conjugate-linear in the first slot and satisfies
(a.u, v) = (u, v) a*  and  (u, a.v) = a (u, v).

Internally a vector keeps one ndarray per algebra block, shaped
(rank, n_b, n_b), so bulk operations stay vectorized.  ``vec`` flattens a
vector to C^{rank*d}; under that flattening the complex trace of the
A-valued inner product becomes the ordinary Hermitian product, which makes
a module map's dense shadow (Morphism.embed) a faithful representation.

A right-acting module map A^m -> A^n is stored as one complex matrix R_b of
size (m*n_b) x (n*n_b) per algebra block, and so is a module's projection
(m = n = rank).  A vector's block, laid out as the n_b x (m*n_b) row matrix
U_b, maps to U_b R_b (``_apply``), so composition is a product of the R_b.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraElement, AlgebraSpec, _freeze
from .errors import SpecMismatch

__all__ = [
    "ModuleSpec",
    "ModuleVector",
    "act",
    "inner_product",
]


def _apply(ub: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Vector blocks (..., m, nb, nb) times a module map's R_b, shaped (..., n, nb, nb)."""
    *lead, m, nb, _ = ub.shape
    n = mat.shape[1] // nb
    rows = np.swapaxes(ub, -3, -2).reshape(*lead, nb, m * nb) @ mat
    return np.ascontiguousarray(np.swapaxes(rows.reshape(*lead, nb, n, nb), -3, -2))


def _entry_blocks(spec: AlgebraSpec, rank: int, entries) -> tuple:
    """Stack a list of algebra elements into per-block arrays (rank, n, n)."""
    if len(entries) != rank:
        raise SpecMismatch(f"expected {rank} entries, got {len(entries)}")
    out = []
    for b, n in enumerate(spec.block_sizes):
        arr = np.zeros((rank, n, n), dtype=complex)
        for i, e in enumerate(entries):
            if e.spec != spec:
                raise SpecMismatch("entry over a different algebra spec")
            arr[i] = e.blocks[b]
        out.append(_freeze(arr))
    return tuple(out)


class ModuleSpec:
    """A^rank, optionally cut down by a right-acting self-adjoint idempotent."""

    def __init__(self, algebra: AlgebraSpec, rank: int, projection=None, tol: float = 1e-9):
        """projection, when given, holds one (rank*n_b) x (rank*n_b) matrix P_b per block."""
        rank = int(rank)
        if rank < 0:
            raise ValueError("rank must be nonnegative")
        self.algebra = algebra
        self.rank = rank
        if projection is None:
            self.projection = None
        else:
            projection = tuple(projection)
            if len(projection) != len(algebra.block_sizes):
                raise SpecMismatch(
                    f"projection has {len(projection)} blocks, expected "
                    f"{len(algebra.block_sizes)}"
                )
            checked = []
            for nb, p in zip(algebra.block_sizes, projection):
                p = np.array(p, dtype=complex, order="C")
                if p.shape != (rank * nb, rank * nb):
                    raise SpecMismatch(
                        f"projection block of shape {p.shape}, expected "
                        f"{(rank * nb, rank * nb)}"
                    )
                checked.append(_freeze(p))
            self.projection = tuple(checked)
            self._check_projection(tol)

    def _check_projection(self, tol: float):
        for p in self.projection:
            if p.size and np.abs(p - p.conj().T).max() > tol:
                raise SpecMismatch("projection is not self-adjoint")
            if p.size and np.abs(p @ p - p).max() > tol:
                raise SpecMismatch("projection is not idempotent")

    def __eq__(self, other):
        if not isinstance(other, ModuleSpec):
            return False
        if self.algebra != other.algebra or self.rank != other.rank:
            return False
        if (self.projection is None) != (other.projection is None):
            return False
        if self.projection is not None:
            return all(
                np.array_equal(p, q)
                for p, q in zip(self.projection, other.projection)
            )
        return True

    def __hash__(self):
        return hash((self.algebra, self.rank, self.projection is None))

    def __repr__(self):
        tag = "projective " if self.projection is not None else ""
        return f"ModuleSpec({tag}rank={self.rank} over {self.algebra.block_sizes})"

    @property
    def block_ranks(self) -> tuple:
        """Rank of the projection's matrix P_b in each algebra block.

        rank * n_b for a free module.  With a projection present it is the
        trace of P_b, an integer recovered exactly because P_b is idempotent
        and self-adjoint.
        """
        if self.projection is None:
            return tuple(self.rank * nb for nb in self.algebra.block_sizes)
        return tuple(int(round(float(np.trace(p).real))) for p in self.projection)

    @property
    def concrete_dim(self) -> int:
        """Complex dimension of the module's shadow subspace.

        For a free module this is rank * d, in general the sum of
        n_b * rank P_b, since the shadow repeats each block n_b times.
        """
        if self.projection is None:
            return self.rank * self.algebra.dim
        return sum(nb * r for nb, r in zip(self.algebra.block_sizes, self.block_ranks))

    # -- vectors ---------------------------------------------------------------

    def vector(self, entries) -> "ModuleVector":
        return ModuleVector(self, _entry_blocks(self.algebra, self.rank, entries))

    def zero_vector(self) -> "ModuleVector":
        return ModuleVector(
            self,
            tuple(
                _freeze(np.zeros((self.rank, n, n), dtype=complex))
                for n in self.algebra.block_sizes
            ),
        )

    def basis_vector(self, i: int) -> "ModuleVector":
        """Standard generator e_i with the algebra unit in slot i."""
        if not 0 <= i < self.rank:
            raise IndexError(f"slot {i} outside rank {self.rank}")
        blocks = []
        for n in self.algebra.block_sizes:
            arr = np.zeros((self.rank, n, n), dtype=complex)
            arr[i] = np.eye(n)
            blocks.append(_freeze(arr))
        return ModuleVector(self, tuple(blocks))

    def random_vector(self, rng: np.random.Generator, scale: float = 1.0) -> "ModuleVector":
        blocks = []
        for n in self.algebra.block_sizes:
            z = rng.standard_normal((self.rank, n, n)) + 1j * rng.standard_normal(
                (self.rank, n, n)
            )
            blocks.append(_freeze(scale * z / np.sqrt(2.0)))
        v = ModuleVector(self, tuple(blocks))
        if self.projection is not None:
            v = self.project(v)
        return v

    def project(self, u: "ModuleVector") -> "ModuleVector":
        """Apply the defining projection on the right (identity if free)."""
        if self.projection is None:
            return u
        blocks = tuple(
            _freeze(_apply(ub, pb)) for ub, pb in zip(u.blocks, self.projection)
        )
        return ModuleVector(self, blocks)

    def contains(self, u: "ModuleVector", tol: float = 1e-9) -> bool:
        if u.module is not self and u.module != self:
            return False
        if self.projection is None:
            return True
        return (self.project(u) - u).norm() <= tol

    def from_vec(self, flat: np.ndarray) -> "ModuleVector":
        """Inverse of ModuleVector.vec for this module."""
        d = self.algebra.dim
        flat = np.asarray(flat, dtype=complex).reshape(self.rank * d)
        blocks = []
        for n, off in zip(self.algebra.block_sizes, self.algebra.block_offsets):
            arr = np.zeros((self.rank, n, n), dtype=complex)
            for i in range(self.rank):
                seg = flat[i * d + off : i * d + off + n * n]
                arr[i] = seg.reshape(n, n)
            blocks.append(_freeze(arr))
        return ModuleVector(self, tuple(blocks))


class ModuleVector:
    """Element of a module; one stacked array per algebra block."""

    __slots__ = ("module", "blocks")

    def __init__(self, module: ModuleSpec, blocks):
        self.module = module
        self.blocks = tuple(blocks)

    @property
    def entries(self):
        out = []
        for i in range(self.module.rank):
            out.append(
                AlgebraElement(self.module.algebra, [b[i] for b in self.blocks])
            )
        return out

    def _require_same_module(self, other: "ModuleVector"):
        if self.module != other.module:
            raise SpecMismatch("vectors live in different modules")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same_module(other)
        return ModuleVector(
            self.module,
            tuple(_freeze(x + y) for x, y in zip(self.blocks, other.blocks)),
        )

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same_module(other)
        return ModuleVector(
            self.module,
            tuple(_freeze(x - y) for x, y in zip(self.blocks, other.blocks)),
        )

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.module, tuple(_freeze(-x) for x in self.blocks))

    def __mul__(self, c) -> "ModuleVector":
        c = complex(c)
        return ModuleVector(self.module, tuple(_freeze(c * x) for x in self.blocks))

    __rmul__ = __mul__

    def norm(self) -> float:
        """sqrt of the algebra norm of (u, u); zero only for the zero vector."""
        g = inner_product(self, self)
        return float(np.sqrt(max(g.norm(), 0.0)))

    def vec(self) -> np.ndarray:
        """Flatten to C^{rank*d}; entry i occupies the slice [i*d, (i+1)*d)."""
        d = self.module.algebra.dim
        out = np.zeros(self.module.rank * d, dtype=complex)
        for (n, off, blk) in zip(
            self.module.algebra.block_sizes,
            self.module.algebra.block_offsets,
            self.blocks,
        ):
            for i in range(self.module.rank):
                out[i * d + off : i * d + off + n * n] = blk[i].reshape(-1)
        return out

    def __repr__(self):
        return f"ModuleVector(rank={self.module.rank}, norm={self.norm():.3g})"


def act(a: AlgebraElement, u: ModuleVector) -> ModuleVector:
    """Left action, a applied to every entry of u."""
    if a.spec != u.module.algebra:
        raise SpecMismatch("algebra element and module disagree on the algebra")
    blocks = tuple(
        _freeze(np.einsum("ab,ibc->iac", ab, ub))
        for ab, ub in zip(a.blocks, u.blocks)
    )
    return ModuleVector(u.module, blocks)


def inner_product(u: ModuleVector, v: ModuleVector) -> AlgebraElement:
    """A-valued inner product sum_i v_i u_i*, conjugate-linear in u."""
    if u.module != v.module:
        raise SpecMismatch("vectors live in different modules")
    out = []
    for ub, vb in zip(u.blocks, v.blocks):
        if ub.shape[0] == 0:
            out.append(np.zeros((ub.shape[1], ub.shape[1]), dtype=complex))
        else:
            out.append(np.einsum("iab,icb->ac", vb, np.conj(ub)))
    return AlgebraElement(u.module.algebra, out, copy=False)

