"""Band-limited module-valued sections on a flat torus, in Fourier form.

A geometry fixes the torus dimension n, a band limit N and a fiber module.
Sections of k-forms are finite Fourier sums

    s(x) = sum_q c_q exp(2 pi i <q, x>),   |q|_inf <= N,

with coefficients c_q in the fiber tensored with the exterior k-slots.  All
operators act mode by mode: derivatives multiply by (2 pi i q)^alpha, the de
Rham differential wedges with 2 pi i q, and its Hodge Laplacian is the scalar
multiplier 4 pi^2 |q|^2.  Two Sobolev-type norms are available (the metric
one built from the weight (1 + 4 pi^2 |q|^2)^t and the Fourier one built
from (1 + |q|^2)^t) together with their band-exact equivalence constants,
a fully derived constant for the sup-norm bound on derivatives, and an
elliptic-regularity gain estimate.  Everything is computed, nothing is
hard-coded.

A section keeps, per algebra block, one (modes, n_b, m*n_b) stack of the
coefficients' row matrices (the layout of ModuleVector.rows), so a module
map R_b acts on every mode at once as one batched product, and the fiber
norms at a grid of points come from one product with the phase matrix.  The
de Rham complex of each mode is built once as a ChainComplex on the
geometry's cached form fibers.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, _freeze
from .chain import ChainComplex, free_rank_of_projection
from .errors import GeometryMismatch, HypothesisViolated, SpecMismatch, ValidationError
from .hom import Morphism, identity_morphism
from .module import MAX_MODULE_DIM, ModuleSpec, ModuleVector
from .symbol import (
    _scalar_morphism,
    de_rham_symbol_coeffs,
    exterior_basis,
    form_fiber,
    tiled_module,
)

__all__ = [
    "TorusGeometry",
    "TorusSection",
    "FourierMultiplier",
    "section_product",
    "sobolev_product",
    "fourier_norm",
    "product_norm",
    "norm_equivalence_constants",
    "derivative_bound_constant",
    "embedding_check",
    "de_rham_differential",
    "de_rham_complex",
    "harmonic_rank_report",
    "laplace_solve",
    "regularity_report",
    "random_section",
]


# Distinct (n, t, |alpha|, radius) lattice sums kept; a CLI run needs two.
LATTICE_CACHE_SIZE = 64

# Largest band (2N + 1)^n a geometry enumerates; larger ones are refused
# before any mode is listed.
MAX_MODES = 65536

# Largest number of (mode, exterior slot) pairs over all form degrees,
# modes * 2^n, that a geometry accepts.  With band 0 there is one mode, but
# degree k still carries C(n, k) slots: on a 2-core machine the de Rham
# suite takes about 5 s and 240 MB at n = 12 (4096 pairs), 33 s and 605 MB
# at n = 13.
MAX_FORM_SLOTS = 4096

# Largest grid points * modes that embedding_check evaluates: the phase
# matrix of norm_at_points holds that many complex numbers (16 MiB).
MAX_GRID_PHASES = 1 << 20


class TorusGeometry:
    """Torus dimension, Fourier band and fiber module.

    Raises ValidationError for a dimension below 1, a negative band limit,
    more than MAX_MODES modes, more than MAX_FORM_SLOTS modes times 2^n
    exterior slots, or a largest form fiber, C(n, n // 2) copies of the
    fiber, whose rank * dim(A) exceeds MAX_MODULE_DIM, before enumerating
    anything.
    """

    def __init__(self, dimension: int, band_limit: int, fiber: ModuleSpec):
        n = int(dimension)
        band = int(band_limit)
        if n < 1:
            raise ValidationError(f"torus dimension must be at least 1, got {n}")
        if band < 0:
            raise ValidationError(f"band limit must be nonnegative, got {band}")
        side = 2 * band + 1
        # side >= 3 once band > 0, so an exponent of bit_length(cap) already
        # exceeds the cap; the clamp keeps a huge n from a huge power
        if side ** min(n, MAX_MODES.bit_length()) > MAX_MODES:
            raise ValidationError(f"{side}^{n} modes exceed the cap of {MAX_MODES}")
        if side**n * 2 ** min(n, MAX_FORM_SLOTS.bit_length()) > MAX_FORM_SLOTS:
            raise ValidationError(
                f"{side}^{n} modes times 2^{n} exterior slots exceed the cap of "
                f"{MAX_FORM_SLOTS}"
            )
        # n <= 12 past the slot cap, so the binomial is small
        widest = math.comb(n, n // 2) * fiber.rank * fiber.algebra.dim
        if widest > MAX_MODULE_DIM:
            raise ValidationError(
                f"largest form fiber C({n}, {n // 2}) * rank {fiber.rank} * dim(A) "
                f"{fiber.algebra.dim} = {widest} exceeds the cap of {MAX_MODULE_DIM}"
            )
        self.dimension = n
        self.band_limit = band
        self.fiber = fiber
        self.algebra = fiber.algebra
        self.modes = _freeze(
            np.array(
                list(itertools.product(range(-band, band + 1), repeat=n)), dtype=int
            )
        )
        self.mode_index = {tuple(q): i for i, q in enumerate(self.modes)}
        self.num_modes = len(self.modes)
        self._form_fibers: dict = {}
        self._total_modules: dict = {}

    def __eq__(self, other):
        return (
            isinstance(other, TorusGeometry)
            and self.dimension == other.dimension
            and self.band_limit == other.band_limit
            and self.fiber == other.fiber
        )

    def __hash__(self):
        return hash((self.dimension, self.band_limit, self.fiber.rank, self.algebra))

    def __repr__(self):
        return (
            f"TorusGeometry(n={self.dimension}, N={self.band_limit}, "
            f"fiber rank {self.fiber.rank} over {self.algebra.block_sizes})"
        )

    def form_fiber(self, degree: int) -> ModuleSpec:
        """Per-mode coefficient module of k-forms."""
        if not 0 <= degree <= self.dimension:
            raise ValueError(f"form degree {degree} outside 0..{self.dimension}")
        if degree not in self._form_fibers:
            self._form_fibers[degree] = form_fiber(self.fiber, self.dimension, degree)
        return self._form_fibers[degree]

    def total_module(self, degree: int) -> ModuleSpec:
        """All modes stacked: the degree-k module of the assembled complex."""
        if degree not in self._total_modules:
            self._total_modules[degree] = tiled_module(
                self.form_fiber(degree), self.num_modes
            )
        return self._total_modules[degree]

    def mode_norms_sq(self) -> np.ndarray:
        return np.sum(self.modes.astype(float) ** 2, axis=1)

    def zero_section(self, degree: int) -> "TorusSection":
        m = self.form_fiber(degree).rank
        rows = [
            np.zeros((self.num_modes, nb, m * nb), dtype=complex)
            for nb in self.algebra.block_sizes
        ]
        return TorusSection(self, degree, rows)


class TorusSection:
    """Finite Fourier sum with module coefficients; immutable.

    Per algebra block it holds one (modes, n_b, m*n_b) stack ``rows``: the
    row matrix (ModuleVector.rows) of every mode's coefficient, so one module
    map R_b acts on all modes at once as rows[b] @ R_b.
    """

    __slots__ = ("geometry", "degree", "rows")

    def __init__(self, geometry: TorusGeometry, degree: int, rows):
        self.geometry = geometry
        self.degree = int(degree)
        m = geometry.form_fiber(self.degree).rank
        rows = tuple(rows)
        sizes = geometry.algebra.block_sizes
        if len(rows) != len(sizes):
            raise SpecMismatch(f"{len(rows)} coefficient stacks, expected {len(sizes)}")
        checked = []
        for nb, arr in zip(sizes, rows):
            arr = np.asarray(arr, dtype=complex)
            if arr.shape != (geometry.num_modes, nb, m * nb):
                raise SpecMismatch(
                    f"coefficient stack of shape {arr.shape}, expected "
                    f"{(geometry.num_modes, nb, m * nb)}"
                )
            checked.append(_freeze(arr.copy()))
        self.rows = tuple(checked)

    @classmethod
    def from_coefficients(cls, geometry: TorusGeometry, degree: int, coeffs: dict):
        """Build from a mapping mode tuple -> ModuleVector over the form fiber."""
        per_mode = geometry.form_fiber(degree)
        rows = [
            np.zeros((geometry.num_modes, nb, per_mode.rank * nb), dtype=complex)
            for nb in geometry.algebra.block_sizes
        ]
        for q, vec in coeffs.items():
            key = tuple(int(x) for x in q)
            if key not in geometry.mode_index:
                raise GeometryMismatch(f"mode {key} outside the band")
            if vec.module != per_mode:
                raise SpecMismatch(f"coefficient at {key} in the wrong module")
            idx = geometry.mode_index[key]
            for stack, u in zip(rows, vec.rows):
                stack[idx] = u
        return cls(geometry, degree, rows)

    def coefficient(self, q) -> ModuleVector:
        key = tuple(int(x) for x in q)
        if key not in self.geometry.mode_index:
            raise GeometryMismatch(f"mode {key} outside the band")
        idx = self.geometry.mode_index[key]
        return ModuleVector(self.geometry.form_fiber(self.degree), [b[idx] for b in self.rows])

    def support(self, tol: float = 0.0) -> list:
        """Modes carrying a coefficient above tol (in max-entry magnitude)."""
        mags = np.zeros(self.geometry.num_modes)
        for b in self.rows:
            if b.size:
                mags = np.maximum(mags, np.abs(b).reshape(self.geometry.num_modes, -1).max(axis=1))
        return [tuple(q) for q, m in zip(self.geometry.modes, mags) if m > tol]

    def _require_compatible(self, other: "TorusSection"):
        if self.geometry != other.geometry or self.degree != other.degree:
            raise GeometryMismatch("sections disagree in geometry or degree")

    def __add__(self, other: "TorusSection") -> "TorusSection":
        self._require_compatible(other)
        return TorusSection(
            self.geometry, self.degree, [x + y for x, y in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "TorusSection") -> "TorusSection":
        self._require_compatible(other)
        return TorusSection(
            self.geometry, self.degree, [x - y for x, y in zip(self.rows, other.rows)]
        )

    def __mul__(self, c) -> "TorusSection":
        c = complex(c)
        return TorusSection(self.geometry, self.degree, [c * x for x in self.rows])

    __rmul__ = __mul__

    def __neg__(self) -> "TorusSection":
        return self * (-1.0)

    def scale_modes(self, values: np.ndarray) -> "TorusSection":
        """Multiply the coefficient of mode j by values[j]."""
        values = np.asarray(values, dtype=complex)
        if values.shape != (self.geometry.num_modes,):
            raise GeometryMismatch("one multiplier value per mode required")
        return TorusSection(
            self.geometry, self.degree, [values[:, None, None] * b for b in self.rows]
        )

    def _values(self, phases: np.ndarray) -> list:
        """Per block, the row matrices sum_q phases[p, q] c_q, shaped (points, n_b, m*n_b)."""
        return [
            (phases @ b.reshape(len(b), -1)).reshape(len(phases), *b.shape[1:])
            for b in self.rows
        ]

    def evaluate(self, x) -> ModuleVector:
        """Pointwise value sum_q c_q exp(2 pi i <q, x>)."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.geometry.dimension,):
            raise GeometryMismatch(f"point of shape {x.shape}")
        phases = np.exp(2j * np.pi * (self.geometry.modes @ x))
        return ModuleVector(
            self.geometry.form_fiber(self.degree), [v[0] for v in self._values(phases[None])]
        )

    def derivative(self, alpha) -> "TorusSection":
        """Spectral partial derivative: multiply mode q by prod (2 pi i q_j)^a_j."""
        alpha = _check_multi_index(alpha, self.geometry.dimension)
        factors = np.ones(self.geometry.num_modes, dtype=complex)
        for j, a in enumerate(alpha):
            if a:
                factors *= (2j * np.pi * self.geometry.modes[:, j]) ** a
        return self.scale_modes(factors)

    def norm_at_points(self, points: np.ndarray) -> np.ndarray:
        """Fiber norms |s(x)| at many points: one product with the phase matrix per block."""
        points = np.asarray(points, dtype=float)
        phases = np.exp(2j * np.pi * (points @ self.geometry.modes.T))  # (P, M)
        return np.sqrt(_fiber_norms_sq(self._values(phases), len(points)))

    def __repr__(self):
        return (
            f"TorusSection(degree={self.degree}, {self.geometry!r})"
        )


def _fiber_norms_sq(stacks, count: int) -> np.ndarray:
    """Squared fiber norms |u|^2 of count vectors given by their row matrices.

    stacks holds one (count, n_b, m*n_b) batch per algebra block; |u|^2 is
    the largest eigenvalue of the fiber Gram U_b U_b* over the blocks.
    """
    out = np.zeros(count)
    for b in stacks:
        lam = np.linalg.eigvalsh(b @ b.conj().swapaxes(1, 2))[:, -1]
        out = np.maximum(out, lam)
    return np.maximum(out, 0.0)


def _check_multi_index(alpha, n: int) -> tuple:
    alpha = tuple(int(a) for a in (alpha if np.iterable(alpha) else [alpha]))
    if len(alpha) != n:
        raise ValueError(f"multi-index of length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return alpha


def random_section(
    geometry: TorusGeometry, degree: int, rng: np.random.Generator, scale: float = 1.0
) -> TorusSection:
    m = geometry.form_fiber(degree).rank
    rows = []
    for nb in geometry.algebra.block_sizes:
        # coefficients drawn as (mode, i, row, col), then laid out as row matrices
        shape = (geometry.num_modes, m, nb, nb)
        z = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        rows.append((scale * z / np.sqrt(2.0)).transpose(0, 2, 1, 3).reshape(-1, nb, m * nb))
    projection = geometry.form_fiber(degree).projection
    if projection is not None:
        rows = [b @ p for b, p in zip(rows, projection)]
    return TorusSection(geometry, degree, rows)


# -- products and norms ---------------------------------------------------------------


def _side_by_side(stack: np.ndarray) -> np.ndarray:
    """(modes, n_b, m*n_b) stack -> one n_b x (modes*m*n_b) row matrix, modes in order."""
    return stack.transpose(1, 0, 2).reshape(stack.shape[1], -1)


def _weighted_product(s1: TorusSection, s2: TorusSection, weights: np.ndarray) -> AlgebraElement:
    """sum_q weights[q] (c1_q, c2_q), one product V_b U_b* per block."""
    s1._require_compatible(s2)
    out = [
        _side_by_side(weights[:, None, None] * vb) @ _side_by_side(ub).conj().T
        for ub, vb in zip(s1.rows, s2.rows)
    ]
    return AlgebraElement(s1.geometry.algebra, out, copy=False)


def section_product(s1: TorusSection, s2: TorusSection) -> AlgebraElement:
    """A-valued pairing sum_q (c1_q, c2_q); equals the grid average of the
    pointwise fiber products because the phases are orthonormal."""
    return _weighted_product(s1, s2, np.ones(s1.geometry.num_modes))


def _sobolev_weights(geometry: TorusGeometry, t: float) -> np.ndarray:
    return (1.0 + 4.0 * np.pi**2 * geometry.mode_norms_sq()) ** t


def _fourier_weights(geometry: TorusGeometry, t: float) -> np.ndarray:
    return (1.0 + geometry.mode_norms_sq()) ** t


def sobolev_product(s1: TorusSection, s2: TorusSection, t: float) -> AlgebraElement:
    """Pairing weighted by (1 + 4 pi^2 |q|^2)^t, the metric Sobolev product."""
    return _weighted_product(s1, s2, _sobolev_weights(s1.geometry, t))


def fourier_norm(s: TorusSection, t: float) -> float:
    """Scalar norm sqrt(sum_q |c_q|^2 (1 + |q|^2)^t)."""
    w = _fourier_weights(s.geometry, t)
    return float(np.sqrt(np.sum(w * _fiber_norms_sq(s.rows, s.geometry.num_modes))))


def product_norm(s: TorusSection, t: float) -> float:
    """Norm induced by the metric Sobolev product, sqrt|(s, s)_t|."""
    g = sobolev_product(s, s, t)
    return float(np.sqrt(max(g.norm(), 0.0)))


@dataclass(frozen=True)
class EquivalenceConstants:
    """Band-exact comparison between the metric and Fourier t-norms.

    ratio_min/ratio_max extremize ((1 + 4 pi^2 |q|^2)/(1 + |q|^2))^t over the
    band.  The upper bound product_norm <= sqrt(ratio_max) * fourier_norm
    holds for every section; the matching lower bound with sqrt(ratio_min)
    holds for scalar one-block algebras, while in general the operator norm
    of a sum of positive terms can drop below the sum of norms, so the safe
    lower constant carries the extra 1/sqrt(num_modes) factor.
    """

    t: float
    ratio_min: float
    ratio_max: float
    upper: float
    lower_safe: float


def norm_equivalence_constants(geometry: TorusGeometry, t: float) -> EquivalenceConstants:
    ratios = _sobolev_weights(geometry, t) / _fourier_weights(geometry, t)
    rmin, rmax = float(ratios.min()), float(ratios.max())
    return EquivalenceConstants(
        t=t,
        ratio_min=rmin,
        ratio_max=rmax,
        upper=math.sqrt(rmax),
        lower_safe=math.sqrt(rmin / geometry.num_modes),
    )


# -- the sup-norm constant for derivatives ----------------------------------------------


@functools.lru_cache(maxsize=LATTICE_CACHE_SIZE)
def _lattice_sum(n: int, t: float, a: int, radius: int) -> float:
    """sum over |q|_inf <= radius of |q|^{2a} / (1 + |q|^2)^t, by exact counts.

    The summand depends on q only through s = |q|^2, so the sum is
    sum_s c[s] s^a / (1 + s)^t with c[s] the number of lattice points in the
    cube with |q|^2 = s.  The counts are built one axis at a time in int64:
    each axis adds shifted copies of the previous counts, one shift k^2 per
    coordinate value k (weight 1 for k = 0, 2 for +-k).  Memory is one array
    of length n radius^2 + 1, never a grid of the cube.  Cached on
    (n, t, |alpha|, radius), so derivatives of equal order share one sum.
    """
    if radius < 0:
        raise ValueError(f"lattice radius must be nonnegative, got {radius}")
    if 2 * (2 * radius + 1) ** n > np.iinfo(np.int64).max:
        raise ValueError(f"{2 * radius + 1}^{n} lattice points overflow exact counts")
    step = radius * radius
    counts = np.zeros(n * step + 1, dtype=np.int64)
    counts[0] = 1
    top = 0
    for _ in range(n):
        grown = counts.copy()
        for k in range(1, radius + 1):
            grown[k * k : k * k + top + 1] += 2 * counts[: top + 1]
        counts = grown
        top += step
    s = np.flatnonzero(counts)
    sf = s.astype(float)
    return float(np.sum(counts[s] * (sf**a / (1.0 + sf) ** t)))


def _tail_bound(n: int, t: float, a: int, radius: int) -> float:
    """Upper bound for the lattice sum beyond |q|_inf = radius.

    Integral comparison with unit cubes centered at the lattice points:
    every excluded point has |q| >= radius + 1, the summand is decreasing
    there, and (u + sqrt(n)/2)^{n-1} is absorbed into a constant factor.
    """
    sqrt_n = math.sqrt(n)
    u0 = radius + 1 - sqrt_n
    if u0 <= 0:
        raise ValueError("radius too small for the tail bound")
    if t - a > 0 and u0**2 < a / (t - a):
        raise ValueError("radius too small: summand not yet decreasing")
    exponent = 2 * a + n - 2 * t
    if exponent >= 0:
        raise HypothesisViolated(
            f"2|alpha| + n - 2t = {exponent} >= 0: the constant diverges"
        )
    surface = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    fudge = (1.0 + sqrt_n / (2.0 * u0)) ** (n - 1)
    return surface * fudge * (u0**exponent) / (2 * t - 2 * a - n)


def derivative_bound_constant(
    n: int,
    t: float,
    alpha,
    radius: Optional[int] = None,
    band: Optional[int] = None,
) -> float:
    """Constant C with sup_x |d^alpha s(x)| <= C * fourier_norm(s, t).

    C^2 = (2 pi)^{2|alpha|} * sum_q |q|^{2|alpha|} / (1 + |q|^2)^t.  With
    band set the sum runs over that band only (the sharp constant for
    band-limited sections); otherwise it runs over the whole lattice,
    truncated at |q|_inf = radius with a rigorous integral tail bound.
    Raises HypothesisViolated when the full-lattice sum diverges, i.e. when
    2|alpha| + n - 2t >= 0.
    """
    alpha = _check_multi_index(alpha, n)
    a = sum(alpha)
    if band is None and 2 * a + n - 2 * t >= 0:
        raise HypothesisViolated(
            f"2|alpha| + n - 2t = {2 * a + n - 2 * t:g} >= 0: "
            "no finite sup-norm constant at this Sobolev index"
        )
    if band is not None:
        total = _lattice_sum(n, float(t), a, int(band))
    else:
        r = int(radius) if radius is not None else 64
        total = _lattice_sum(n, float(t), a, r) + _tail_bound(n, t, a, r)
    return float(math.sqrt((2.0 * math.pi) ** (2 * a) * total))


def embedding_check(
    s: TorusSection,
    t: float,
    alpha,
    grid=None,
    radius: Optional[int] = None,
) -> dict:
    """Sup-norm of d^alpha s on a grid against C * fourier_norm(s, t).

    The bound uses the full-lattice constant (lattice sum plus tail bound),
    which dominates the sharp band constant, so a correct implementation
    passes for every band-limited section.  The grid may be an integer
    (points per axis) or an array of points; a finite grid can only
    underestimate a supremum, which keeps the inequality one-sided.

    Raises ValidationError, before listing any grid point, when grid points
    times modes exceed MAX_GRID_PHASES.
    """
    geo = s.geometry
    n = geo.dimension
    alpha = _check_multi_index(alpha, n)
    if radius is None:
        radius = 64 * max(1, geo.band_limit)
    constant = derivative_bound_constant(n, t, alpha, radius=radius)

    if grid is None:
        grid = 8 * max(1, geo.band_limit)
    if np.isscalar(grid):
        count = int(grid) ** n
    else:
        pts = np.asarray(grid, dtype=float).reshape(-1, n)
        count = len(pts)
    if count * geo.num_modes > MAX_GRID_PHASES:
        raise ValidationError(
            f"{count} grid points times {geo.num_modes} modes exceed the cap of "
            f"{MAX_GRID_PHASES}"
        )
    if np.isscalar(grid):
        per_axis = np.arange(int(grid)) / float(grid)
        pts = np.array(list(itertools.product(per_axis, repeat=n)))

    deriv = s.derivative(alpha)
    lhs = float(deriv.norm_at_points(pts).max()) if len(pts) else 0.0
    norm_t = fourier_norm(s, t)
    bound = constant * norm_t
    return {
        "alpha": alpha,
        "t": t,
        "sup_grid": lhs,
        "norm_t": norm_t,
        "constant": constant,
        "bound": bound,
        "passed": lhs <= bound,
        "grid_points": int(len(pts)),
        "radius": int(radius),
    }


# -- Fourier multipliers -----------------------------------------------------------------


class FourierMultiplier:
    """Scalar multiplier acting coefficient-wise on sections of one degree."""

    def __init__(self, geometry: TorusGeometry, degree: int, values):
        self.geometry = geometry
        self.degree = int(degree)
        values = np.asarray(values, dtype=complex)
        if values.shape != (geometry.num_modes,):
            raise GeometryMismatch("one multiplier value per mode required")
        self.values = _freeze(values.copy())

    @classmethod
    def identity(cls, geometry: TorusGeometry, degree: int) -> "FourierMultiplier":
        return cls(geometry, degree, np.ones(geometry.num_modes))

    @classmethod
    def laplacian(cls, geometry: TorusGeometry, degree: int) -> "FourierMultiplier":
        return cls(geometry, degree, 4.0 * np.pi**2 * geometry.mode_norms_sq())

    @classmethod
    def sobolev_weight(cls, geometry: TorusGeometry, degree: int, t: float) -> "FourierMultiplier":
        return cls(geometry, degree, _sobolev_weights(geometry, t))

    def apply(self, s: TorusSection) -> TorusSection:
        if s.geometry != self.geometry or s.degree != self.degree:
            raise GeometryMismatch("section does not match the multiplier")
        return s.scale_modes(self.values)

    __call__ = apply

    def adjoint(self) -> "FourierMultiplier":
        return FourierMultiplier(self.geometry, self.degree, np.conj(self.values))

    def compose(self, other: "FourierMultiplier") -> "FourierMultiplier":
        if self.geometry != other.geometry or self.degree != other.degree:
            raise GeometryMismatch("multipliers do not match")
        return FourierMultiplier(self.geometry, self.degree, self.values * other.values)


# -- de Rham complex -----------------------------------------------------------------------


def de_rham_differential(geometry: TorusGeometry, degree: int) -> Morphism:
    """Assembled degree-k differential: per mode, wedge with 2 pi i q."""
    n = geometry.dimension
    r = geometry.fiber.rank
    src = geometry.total_module(degree)
    tgt = geometry.total_module(degree + 1)
    m_src = geometry.form_fiber(degree).rank
    m_tgt = geometry.form_fiber(degree + 1).rank
    coeffs = np.zeros((src.rank, tgt.rank), dtype=complex)
    for idx, q in enumerate(geometry.modes):
        coeffs[
            idx * m_src : (idx + 1) * m_src, idx * m_tgt : (idx + 1) * m_tgt
        ] = de_rham_symbol_coeffs(n, degree, q, r)
    return _scalar_morphism(src, tgt, coeffs)


def de_rham_complex(geometry: TorusGeometry) -> ChainComplex:
    modules = [geometry.total_module(k) for k in range(geometry.dimension + 1)]
    diffs = [de_rham_differential(geometry, k) for k in range(geometry.dimension)]
    return ChainComplex(modules, diffs)


def section_as_total_vector(s: TorusSection) -> ModuleVector:
    """Flatten a section into the assembled module of its degree."""
    return ModuleVector(s.geometry.total_module(s.degree), [_side_by_side(b) for b in s.rows])


def harmonic_rank_report(geometry: TorusGeometry, cutoff: float = 1e-10) -> list:
    """Mode-diagonal harmonic analysis of the de Rham complex.

    Each mode q has its own de Rham complex: the form fibers with the symbol
    maps (wedging with 2 pi i q) between them, built once per mode as a
    ChainComplex.  For each degree its Laplacian is checked against the
    scalar multiplier 4 pi^2 |q|^2 and its kernel dimensions are
    accumulated; only the zero mode may contribute.  D D = 0 is reported as
    the largest raw norm of consecutive symbol maps.  Reports the concrete
    harmonic dimension, the free rank read from the zero-mode projection,
    and the expected binomial(n, k) * fiber values.
    """
    n = geometry.dimension
    r = geometry.fiber.rank
    fibers = [geometry.form_fiber(k) for k in range(n + 1)]
    idents = [identity_morphism(f) for f in fibers]
    reports = []
    for k in range(n + 1):
        slots = len(exterior_basis(n, k))
        reports.append(
            {
                "degree": k,
                "harmonic_dim": 0,
                "expected_dim": slots * geometry.fiber.concrete_dim,
                "free_rank": None,
                "expected_free_rank": slots * r if geometry.fiber.projection is None else None,
                "kernel_modes": [],
                "max_multiplier_residual": 0.0,
                "max_square_residual": 0.0,
            }
        )
    for q, qsq in zip(geometry.modes, geometry.mode_norms_sq()):
        maps = [
            _scalar_morphism(fibers[k], fibers[k + 1], de_rham_symbol_coeffs(n, k, q, r))
            for k in range(n)
        ]
        cx = ChainComplex(fibers, maps, validate=False)
        for k, rep in enumerate(reports):
            lap = cx.laplacian(k)
            if k + 1 < n:
                rep["max_square_residual"] = max(
                    rep["max_square_residual"], (maps[k + 1] @ maps[k]).norm()
                )
            rep["max_multiplier_residual"] = max(
                rep["max_multiplier_residual"],
                (lap - (4.0 * np.pi**2 * qsq) * idents[k]).norm(),
            )
            nullity = fibers[k].concrete_dim - lap.concrete_rank(cutoff)
            if nullity:
                rep["kernel_modes"].append(tuple(int(x) for x in q))
                rep["harmonic_dim"] += nullity
            if qsq == 0.0:
                rep["free_rank"] = free_rank_of_projection(lap.kernel_projection(cutoff))
    for rep in reports:
        expected_free = rep["expected_free_rank"]
        rep["passed"] = (
            rep["harmonic_dim"] == rep["expected_dim"]
            and rep["kernel_modes"] == [tuple([0] * n)]
            and (expected_free is None or rep["free_rank"] == expected_free)
        )
    return reports


# -- elliptic regularity ----------------------------------------------------------------


def laplace_solve(f: TorusSection, cutoff: float = 1e-12) -> tuple:
    """Solve Laplacian u = f - P f with P the projection onto the zero mode.

    Returns (u, Pf); u has zero mean and coefficients f_q / (4 pi^2 |q|^2).
    """
    geo = f.geometry
    mult = 4.0 * np.pi**2 * geo.mode_norms_sq()
    inv = np.zeros_like(mult)
    nz = mult > cutoff * max(mult.max(), 1.0)
    inv[nz] = 1.0 / mult[nz]
    u = f.scale_modes(inv)
    mean = f.scale_modes((~nz).astype(float))
    return u, mean


@dataclass(frozen=True)
class RegularityReport:
    degree: int
    solve_residual: float
    gain_constant: float
    gains: list
    kernel_supports: dict
    supports_agree: bool
    kernel_is_zero_mode: bool
    passed: bool


def regularity_report(
    geometry: TorusGeometry,
    degree: int,
    f: TorusSection,
    t_values=(-2.0, 0.0, 2.0),
    cutoff: float = 1e-10,
) -> RegularityReport:
    """Solve, then verify the elliptic gain and the t-independent kernel.

    The gain constant is max over nonzero band modes of
    (1 + |q|^2) / (4 pi^2 |q|^2); the solution satisfies
    fourier_norm(u, t + 2) <= C * fourier_norm(f, t) for every t.  The kernel
    of the Laplacian seen from the t-norm is computed per t as the modes
    whose normalized action 4 pi^2 |q|^2 (1+|q|^2)^{(t-2)/2} / (1+|q|^2)^{t/2}
    vanishes; the support must be the zero mode for every t.
    """
    if f.geometry != geometry or f.degree != degree:
        raise GeometryMismatch("right-hand side does not match the geometry")
    u, mean = laplace_solve(f)
    lap = FourierMultiplier.laplacian(geometry, degree)
    residual = fourier_norm(lap.apply(u) - (f - mean), 0.0)

    qsq = geometry.mode_norms_sq()
    nz = qsq > 0
    gain_constant = float(((1.0 + qsq[nz]) / (4.0 * np.pi**2 * qsq[nz])).max()) if nz.any() else 0.0

    gains = []
    for t in t_values:
        lhs = fourier_norm(u, t + 2.0)
        rhs = gain_constant * fourier_norm(f, t)
        gains.append({"t": float(t), "norm_solution": lhs, "norm_rhs": rhs, "passed": lhs <= rhs + 1e-12 * max(1.0, rhs)})

    supports = {}
    for t in t_values:
        action = 4.0 * np.pi**2 * qsq * (1.0 + qsq) ** ((t - 2.0) / 2.0)
        action /= (1.0 + qsq) ** (t / 2.0)
        scale = action.max() if action.size else 0.0
        kernel = [
            tuple(int(x) for x in q)
            for q, a in zip(geometry.modes, action)
            if a <= cutoff * max(scale, 1.0)
        ]
        supports[float(t)] = kernel
    values = list(supports.values())
    agree = all(v == values[0] for v in values)
    zero_mode = values[0] == [tuple([0] * geometry.dimension)] if values else False

    passed = (
        residual <= 1e-9
        and all(g["passed"] for g in gains)
        and agree
        and zero_mode
    )
    return RegularityReport(
        degree=degree,
        solve_residual=residual,
        gain_constant=gain_constant,
        gains=gains,
        kernel_supports=supports,
        supports_agree=agree,
        kernel_is_zero_mode=zero_mode,
        passed=passed,
    )
