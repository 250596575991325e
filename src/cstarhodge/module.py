"""Finitely generated Hilbert modules over a block matrix algebra.

A module is A^m, or the submodule cut out by a self-adjoint idempotent
A-matrix acting on the right.  Vectors are m-tuples of algebra elements.
The A-valued inner product is

    (u, v) = sum_i v_i u_i*

which is conjugate-linear in the first slot and satisfies
(a.u, v) = (u, v) a*  and  (u, a.v) = a (u, v).

A vector keeps one n_b x (m*n_b) row matrix U_b per algebra block
(``ModuleVector.rows``): the blocks of its m entries side by side, entry i's
block at U_b.reshape(n_b, m, n_b)[:, i, :] (``_entry_slots``, which serial's
section reader and writer share).  A right-acting module map A^m -> A^n is
one complex matrix R_b of size (m*n_b) x (n*n_b) per block, and so is a
module's projection (m = n = rank).  So a map sends U_b to U_b R_b, the left
action of a is a_b U_b, and the inner product (u, v) has block V_b U_b*.
``vec`` flattens a vector to C^{rank*d}; under that flattening the complex
trace of the A-valued inner product becomes the ordinary Hermitian product,
which makes a module map's dense shadow (Morphism.embed) a faithful
representation.
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

# Largest concrete dimension rank * dim(A) of a module loaded from a file or
# of a torus form fiber.  A Laplacian on it has at most this many rows per
# block, 64 MiB as one complex matrix.  The largest module the benchmark
# builds is rank 24 over (3,), 216.
MAX_MODULE_DIM = 2048


def _entry_slots(u_b: np.ndarray, rank: int, nb: int) -> np.ndarray:
    """Row matrix U_b as an array (nb, rank, nb); [:, i, :] is entry i's block."""
    return u_b.reshape(nb, rank, nb)


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

    def _zero_rows(self) -> list:
        """One writable zero row matrix per block, to fill and wrap in a ModuleVector."""
        return [np.zeros((nb, self.rank * nb), dtype=complex) for nb in self.algebra.block_sizes]

    def vector(self, entries) -> "ModuleVector":
        if len(entries) != self.rank:
            raise SpecMismatch(f"expected {self.rank} entries, got {len(entries)}")
        rows = self._zero_rows()
        for i, e in enumerate(entries):
            if e.spec != self.algebra:
                raise SpecMismatch("entry over a different algebra spec")
            for nb, u, eb in zip(self.algebra.block_sizes, rows, e.blocks):
                _entry_slots(u, self.rank, nb)[:, i, :] = eb
        return ModuleVector(self, rows)

    def zero_vector(self) -> "ModuleVector":
        return ModuleVector(self, self._zero_rows())

    def basis_vector(self, i: int) -> "ModuleVector":
        """Standard generator e_i with the algebra unit in slot i."""
        if not 0 <= i < self.rank:
            raise IndexError(f"slot {i} outside rank {self.rank}")
        rows = self._zero_rows()
        for nb, u in zip(self.algebra.block_sizes, rows):
            _entry_slots(u, self.rank, nb)[:, i, :] = np.eye(nb)
        return ModuleVector(self, rows)

    def random_vector(self, rng: np.random.Generator, scale: float = 1.0) -> "ModuleVector":
        rows = []
        for n in self.algebra.block_sizes:
            # entries drawn as (i, row, col), then laid out side by side
            z = rng.standard_normal((self.rank, n, n)) + 1j * rng.standard_normal(
                (self.rank, n, n)
            )
            rows.append((scale * z / np.sqrt(2.0)).transpose(1, 0, 2).reshape(n, self.rank * n))
        v = ModuleVector(self, rows)
        if self.projection is not None:
            v = self.project(v)
        return v

    def project(self, u: "ModuleVector") -> "ModuleVector":
        """Apply the defining projection on the right (identity if free)."""
        if self.projection is None:
            return u
        return ModuleVector(self, [ub @ pb for ub, pb in zip(u.rows, self.projection)])

    def contains(self, u: "ModuleVector", tol: float = 1e-9) -> bool:
        if u.module is not self and u.module != self:
            return False
        if self.projection is None:
            return True
        return (self.project(u) - u).norm() <= tol

    def from_vec(self, flat: np.ndarray) -> "ModuleVector":
        """Inverse of ModuleVector.vec for this module."""
        spec = self.algebra
        flat = np.asarray(flat, dtype=complex).reshape(self.rank, spec.dim)
        rows = self._zero_rows()
        for n, off, u in zip(spec.block_sizes, spec.block_offsets, rows):
            entries = flat[:, off : off + n * n].reshape(self.rank, n, n)
            _entry_slots(u, self.rank, n)[...] = entries.transpose(1, 0, 2)
        return ModuleVector(self, rows)


class ModuleVector:
    """Element of a module: one row matrix U_b of shape (n_b, rank*n_b) per block."""

    __slots__ = ("module", "rows")

    def __init__(self, module: ModuleSpec, rows):
        self.module = module
        rows = tuple(rows)
        sizes = module.algebra.block_sizes
        if len(rows) != len(sizes):
            raise SpecMismatch(f"{len(rows)} row matrices, expected {len(sizes)}")
        checked = []
        for nb, u in zip(sizes, rows):
            u = np.array(u, dtype=complex, order="C")
            if u.shape != (nb, module.rank * nb):
                raise SpecMismatch(
                    f"row matrix of shape {u.shape}, expected {(nb, module.rank * nb)}"
                )
            checked.append(_freeze(u))
        self.rows = tuple(checked)

    @property
    def entries(self):
        m = self.module.rank
        sizes = self.module.algebra.block_sizes
        views = [_entry_slots(u, m, nb) for nb, u in zip(sizes, self.rows)]
        return [AlgebraElement(self.module.algebra, [v[:, i, :] for v in views]) for i in range(m)]

    def _require_same_module(self, other: "ModuleVector"):
        if self.module != other.module:
            raise SpecMismatch("vectors live in different modules")

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same_module(other)
        return ModuleVector(self.module, [x + y for x, y in zip(self.rows, other.rows)])

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        self._require_same_module(other)
        return ModuleVector(self.module, [x - y for x, y in zip(self.rows, other.rows)])

    def __neg__(self) -> "ModuleVector":
        return ModuleVector(self.module, [-x for x in self.rows])

    def __mul__(self, c) -> "ModuleVector":
        c = complex(c)
        return ModuleVector(self.module, [c * x for x in self.rows])

    __rmul__ = __mul__

    def norm(self) -> float:
        """sqrt of the algebra norm of (u, u); zero only for the zero vector."""
        g = inner_product(self, self)
        return float(np.sqrt(max(g.norm(), 0.0)))

    def vec(self) -> np.ndarray:
        """Flatten to C^{rank*d}; entry i occupies the slice [i*d, (i+1)*d)."""
        spec = self.module.algebra
        m = self.module.rank
        out = np.zeros((m, spec.dim), dtype=complex)
        for n, off, u in zip(spec.block_sizes, spec.block_offsets, self.rows):
            out[:, off : off + n * n] = _entry_slots(u, m, n).transpose(1, 0, 2).reshape(m, n * n)
        return out.reshape(-1)

    def __repr__(self):
        return f"ModuleVector(rank={self.module.rank}, norm={self.norm():.3g})"


def act(a: AlgebraElement, u: ModuleVector) -> ModuleVector:
    """Left action, a applied to every entry of u: a_b U_b per block."""
    if a.spec != u.module.algebra:
        raise SpecMismatch("algebra element and module disagree on the algebra")
    return ModuleVector(u.module, [ab @ ub for ab, ub in zip(a.blocks, u.rows)])


def inner_product(u: ModuleVector, v: ModuleVector) -> AlgebraElement:
    """A-valued inner product sum_i v_i u_i*, conjugate-linear in u: V_b U_b* per block."""
    if u.module != v.module:
        raise SpecMismatch("vectors live in different modules")
    return AlgebraElement(
        u.module.algebra, [vb @ ub.conj().T for ub, vb in zip(u.rows, v.rows)], copy=False
    )
