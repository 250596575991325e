"""Finite-dimensional C*-algebras given as direct sums of matrix blocks.

An algebra is described by its block sizes (n_1, ..., n_k); an element is a
tuple of complex n_b x n_b matrices.  The involution is the blockwise
conjugate transpose, the norm is the largest singular value over all blocks,
and ``embed`` realizes the algebra on the vector space of its own entries
(dimension d = sum of n_b^2) by left multiplication.  That representation is
faithful, isometric, and commutes with every right-multiplication operator,
which is what the module and morphism layers rely on.
"""

from __future__ import annotations

import numpy as np

from .errors import SpecMismatch

__all__ = ["AlgebraSpec", "AlgebraElement"]


class AlgebraSpec:
    """Shape of a finite direct sum of full complex matrix algebras."""

    __slots__ = ("block_sizes", "dim", "block_offsets")

    def __init__(self, block_sizes):
        sizes = tuple(int(n) for n in block_sizes)
        if not sizes:
            raise ValueError("an algebra needs at least one block")
        if any(n < 1 for n in sizes):
            raise ValueError("block sizes must be positive integers")
        self.block_sizes = sizes
        # d = total number of matrix entries; the size of embed(a)
        self.dim = sum(n * n for n in sizes)
        offsets = []
        off = 0
        for n in sizes:
            offsets.append(off)
            off += n * n
        self.block_offsets = tuple(offsets)

    def __eq__(self, other):
        return isinstance(other, AlgebraSpec) and self.block_sizes == other.block_sizes

    def __hash__(self):
        return hash(self.block_sizes)

    def __repr__(self):
        return f"AlgebraSpec({self.block_sizes!r})"

    # -- element constructors -------------------------------------------------

    def element(self, blocks) -> "AlgebraElement":
        return AlgebraElement(self, blocks)

    def zero(self) -> "AlgebraElement":
        return AlgebraElement(
            self, [np.zeros((n, n), dtype=complex) for n in self.block_sizes], copy=False
        )

    def unit(self) -> "AlgebraElement":
        return AlgebraElement(
            self, [np.eye(n, dtype=complex) for n in self.block_sizes], copy=False
        )

    def scalar(self, value) -> "AlgebraElement":
        """The multiple value * unit."""
        c = complex(value)
        return AlgebraElement(
            self, [c * np.eye(n, dtype=complex) for n in self.block_sizes], copy=False
        )

    def random(self, rng: np.random.Generator, scale: float = 1.0) -> "AlgebraElement":
        """Element with independent complex Gaussian entries."""
        blocks = []
        for n in self.block_sizes:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            blocks.append(scale * z / np.sqrt(2.0))
        return AlgebraElement(self, blocks, copy=False)

    def random_unitary(self, rng: np.random.Generator) -> "AlgebraElement":
        """Haar-ish unitary element, one unitary factor per block."""
        blocks = []
        for n in self.block_sizes:
            z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            q, r = np.linalg.qr(z)
            # fix the phase ambiguity of QR so the draw is well defined
            ph = np.diag(r).copy()
            ph[ph == 0] = 1.0
            blocks.append(q * (ph / np.abs(ph)))
        return AlgebraElement(self, blocks, copy=False)


def _freeze(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


class AlgebraElement:
    """One element of a block matrix algebra; immutable after construction."""

    __slots__ = ("spec", "blocks")

    def __init__(self, spec: AlgebraSpec, blocks, copy: bool = True):
        if len(blocks) != len(spec.block_sizes):
            raise SpecMismatch(
                f"expected {len(spec.block_sizes)} blocks, got {len(blocks)}"
            )
        frozen = []
        for n, blk in zip(spec.block_sizes, blocks):
            arr = np.array(blk, dtype=complex, copy=copy)
            if arr.shape != (n, n):
                raise SpecMismatch(f"block of shape {arr.shape} where {(n, n)} expected")
            frozen.append(_freeze(arr))
        self.spec = spec
        self.blocks = tuple(frozen)

    # -- ring structure -------------------------------------------------------

    def _require_same_spec(self, other: "AlgebraElement"):
        if self.spec != other.spec:
            raise SpecMismatch(f"algebra specs differ: {self.spec} vs {other.spec}")

    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_spec(other)
        return AlgebraElement(
            self.spec, [x + y for x, y in zip(self.blocks, other.blocks)], copy=False
        )

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        self._require_same_spec(other)
        return AlgebraElement(
            self.spec, [x - y for x, y in zip(self.blocks, other.blocks)], copy=False
        )

    def __neg__(self) -> "AlgebraElement":
        return AlgebraElement(self.spec, [-x for x in self.blocks], copy=False)

    def __mul__(self, other):
        """Algebra product for elements, scaling for plain numbers."""
        if isinstance(other, AlgebraElement):
            self._require_same_spec(other)
            return AlgebraElement(
                self.spec, [x @ y for x, y in zip(self.blocks, other.blocks)], copy=False
            )
        c = complex(other)
        return AlgebraElement(self.spec, [c * x for x in self.blocks], copy=False)

    def __rmul__(self, other):
        c = complex(other)
        return AlgebraElement(self.spec, [c * x for x in self.blocks], copy=False)

    # -- *-structure ----------------------------------------------------------

    def star(self) -> "AlgebraElement":
        """Blockwise conjugate transpose."""
        return AlgebraElement(self.spec, [x.conj().T for x in self.blocks], copy=False)

    def norm(self) -> float:
        """C*-norm: largest singular value over all blocks."""
        return max(
            (float(np.linalg.norm(x, 2)) if x.size else 0.0) for x in self.blocks
        )

    def is_positive(self, tol: float = 1e-9) -> bool:
        """Self-adjoint within tol and no eigenvalue below -tol in any block."""
        if (self - self.star()).norm() > tol:
            return False
        for x in self.blocks:
            h = 0.5 * (x + x.conj().T)
            if x.size and float(np.linalg.eigvalsh(h).min()) < -tol:
                return False
        return True

    # -- concrete shadow ------------------------------------------------------

    def embed(self) -> np.ndarray:
        """Left multiplication on the entry space, a d x d block-diagonal matrix.

        Row-major convention: acting on vec(x) per block, left multiplication
        by a is kron(a, I).  The map is a faithful *-homomorphism and
        preserves the norm.
        """
        d = self.spec.dim
        out = np.zeros((d, d), dtype=complex)
        for n, off, blk in zip(
            self.spec.block_sizes, self.spec.block_offsets, self.blocks
        ):
            out[off : off + n * n, off : off + n * n] = np.kron(blk, np.eye(n))
        return out

    def __repr__(self):
        return f"AlgebraElement({self.spec.block_sizes!r}, norm={self.norm():.3g})"
