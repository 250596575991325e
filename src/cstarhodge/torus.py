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
norms at a grid of points come from one product with the phase matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .algebra import AlgebraElement, _freeze
from .chain import block_free_rank, laplacian_mats
from .errors import GeometryMismatch, HypothesisViolated, SpecMismatch, ValidationError
from .hom import _largest_singular, block_singular_values, identity_morphism, rank_rule
from .module import MAX_MODULE_DIM, ModuleSpec, ModuleVector
from .symbol import _onto_target, _scalar_mats, de_rham_symbol_coeffs, exterior_basis, form_fiber

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
    "embedding_checks",
    "harmonic_rank_report",
    "laplace_solve",
    "regularity_report",
    "regularity_reports",
    "random_section",
]


# Distinct (n, t, |alpha|, radius) lattice sums kept; a CLI run needs two.
LATTICE_CACHE_SIZE = 64

# Largest number of (mode, exterior slot) pairs over all form degrees,
# modes * 2^n, that a geometry accepts, so at most 2048 modes.  With band 0
# there is one mode, but degree k still carries C(n, k) slots: on a 2-core
# machine the de Rham suite takes about 5 s and 240 MB at n = 12 (4096
# pairs), 33 s and 605 MB at n = 13.
MAX_FORM_SLOTS = 4096

# Largest grid points * modes that embedding_check evaluates, and the most
# entries per block that a run of the embedding or regularity suite stacks:
# the phase matrix and each such stack hold up to that many complex numbers,
# 16 MiB apiece.  That is not the suite's footprint: at the cap the
# embedding suite holds the phase matrix, a run's value stack and the fiber
# norms' temporaries (below 3/4 of the stack) at once, and peaks at about
# 48 MiB under tracemalloc.
MAX_GRID_PHASES = 1 << 20


class TorusGeometry:
    """Torus dimension, Fourier band and fiber module.

    Raises ValidationError for a dimension below 1, a negative band limit,
    more than MAX_FORM_SLOTS modes times 2^n exterior slots, or a largest
    form fiber, C(n, n // 2) copies of the fiber, whose rank * dim(A)
    exceeds MAX_MODULE_DIM, before enumerating anything.
    """

    def __init__(self, dimension: int, band_limit: int, fiber: ModuleSpec):
        n = int(dimension)
        band = int(band_limit)
        if n < 1:
            raise ValidationError(f"torus dimension must be at least 1, got {n}")
        if band < 0:
            raise ValidationError(f"band limit must be nonnegative, got {band}")
        side = 2 * band + 1
        # 2^e already exceeds the cap at e = bit_length(cap), so clamping both
        # exponents there decides the same; it keeps a huge n from a huge power
        e = min(n, MAX_FORM_SLOTS.bit_length())
        if side**e * 2**e > MAX_FORM_SLOTS:
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
        self.mode_norms_sq = _freeze(np.sum(self.modes.astype(float) ** 2, axis=1))
        # 4 pi^2 |q|^2 per mode: the multiplier of the de Rham Laplacian
        self.laplacian_values = _freeze(4.0 * np.pi**2 * self.mode_norms_sq)
        self._form_fibers: dict = {}

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
        """Modes carrying a coefficient above tol (in max-entry magnitude) or a NaN entry."""
        mags = np.zeros(self.geometry.num_modes)
        for b in self.rows:
            if b.size:
                mags = np.maximum(mags, np.abs(b).reshape(self.geometry.num_modes, -1).max(axis=1))
        return [tuple(q) for q, m in zip(self.geometry.modes, mags) if not m <= tol]

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
        phases = _phase_matrix(self.geometry, x[None])
        return ModuleVector(
            self.geometry.form_fiber(self.degree), [v[0] for v in self._values(phases)]
        )

    def derivative(self, alpha) -> "TorusSection":
        """Spectral partial derivative: multiply mode q by prod (2 pi i q_j)^a_j."""
        return self.scale_modes(_derivative_factors(self.geometry, alpha))

    def norm_at_points(self, points: np.ndarray) -> np.ndarray:
        """Fiber norms |s(x)| at many points: one product with the phase matrix per block."""
        phases = _phase_matrix(self.geometry, np.asarray(points, dtype=float))
        return np.sqrt(_fiber_norms_sq(self._values(phases)))

    def __repr__(self):
        return (
            f"TorusSection(degree={self.degree}, {self.geometry!r})"
        )


def _phase_matrix(geometry: TorusGeometry, points: np.ndarray) -> np.ndarray:
    """exp(2 pi i <x, q>) for every point x (rows) and mode q (columns).

    The phases are scaled in place in the imaginary part of the array exp
    overwrites, so besides the result only the float product is held.
    """
    z = np.zeros((len(points), len(geometry.modes)), dtype=complex)
    z.imag = points @ geometry.modes.T
    z.imag *= 2 * np.pi
    return np.exp(z, out=z)


def _fiber_norms_sq(stacks) -> np.ndarray:
    """Squared fiber norms |u|^2 of vectors given by their row matrices.

    stacks holds one (..., n_b, m*n_b) array per algebra block, all with the
    same leading axes; |u|^2 is the largest eigenvalue of the fiber Gram
    U_b U_b* over the blocks.  For n_b <= 2 it comes in closed form from the
    rows u_0, u_1 of U_b, in one pass over the float view of the stack (real
    and imaginary parts interleaved), with no Gram and no conjugate copy:
    |u_0|^2 for n_b = 1, and for n_b = 2, with a = |u_0|^2, d = |u_1|^2,
    c = <u_0, u_1> and s = max(a, d),

        (a + d)/2 + s sqrt(((a - d)/2s)^2 + |c/s|^2).

    Both terms under the root are at most 1, since |c|^2 <= a d, so the
    result overflows only where a row norm, and so the Gram, does: there it
    is inf, and where s = 0 the Gram is zero and so is the result.  The
    temporaries are a few floats per fiber, reused in place.  Larger blocks
    take one eigvalsh over the stack of Grams.  embedding_checks takes the
    max of these over grid points before the sqrt.
    """
    out = None
    for b in stacks:
        nb = b.shape[-2]
        if nb > 2:
            lam = np.maximum(np.linalg.eigvalsh(b @ b.conj().swapaxes(-1, -2))[..., -1], 0.0)
        else:
            f = np.ascontiguousarray(b, dtype=complex).view(float)
            sq = np.einsum("...ij,...ij->...i", f, f)
            lam = _top_eigenvalue(sq[..., 0], sq[..., 1], f[..., 0, :], f[..., 1, :]) if nb == 2 else sq[..., 0]
        out = lam if out is None else np.maximum(out, lam, out=out)
    return out


def _top_eigenvalue(a, d, u0, u1) -> np.ndarray:
    """Largest eigenvalue of [[a, c], [c*, d]] with c = <u_0, u_1>, from the
    float views u_0, u_1 of the rows (re, im interleaved); overwrites a."""
    c_re = np.einsum("...j,...j->...", u0, u1)
    c_im = np.einsum("...j,...j->...", u0[..., 1::2], u1[..., ::2])
    c_im -= np.einsum("...j,...j->...", u0[..., ::2], u1[..., 1::2])
    s = np.maximum(a, d)
    with np.errstate(invalid="ignore", divide="ignore"):
        c_re /= s
        c_im /= s
        np.square(c_re, out=c_re)
        np.square(c_im, out=c_im)
        c_re += c_im
        lam = np.subtract(a, d, out=c_im)
        lam /= s
        lam *= 0.5
        np.square(lam, out=lam)
        lam += c_re
        np.sqrt(lam, out=lam)
        lam *= s
        a += d
        a *= 0.5
        lam += a
    # 0/0 where the Gram is zero and inf/inf where a row norm overflows: s itself is the answer
    bad = np.isnan(lam)
    lam[bad] = s[bad]
    return lam


def _check_multi_index(alpha, n: int) -> tuple:
    alpha = tuple(int(a) for a in (alpha if np.iterable(alpha) else [alpha]))
    if len(alpha) != n:
        raise ValueError(f"multi-index of length {len(alpha)}, expected {n}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    return alpha


def _derivative_factors(geometry: TorusGeometry, alpha) -> np.ndarray:
    """prod_j (2 pi i q_j)^a_j per mode q: the multiplier of d^alpha."""
    alpha = _check_multi_index(alpha, geometry.dimension)
    factors = np.ones(geometry.num_modes, dtype=complex)
    for j, a in enumerate(alpha):
        if a:
            factors *= (2j * np.pi * geometry.modes[:, j]) ** a
    return factors


def _stacked_rows(geometry: TorusGeometry, degree: int, sections) -> list:
    """Per block, the (sections, modes, n_b, m*n_b) stack of the sections' coefficients."""
    for s in sections:
        if s.geometry != geometry or s.degree != degree:
            raise GeometryMismatch("section does not match the geometry")
    return [np.stack(blocks) for blocks in zip(*(s.rows for s in sections))]


def _runs(sections, per_section: int):
    """Lists of consecutive sections whose stacks, at per_section entries
    apiece, hold at most MAX_GRID_PHASES entries (one section when a single
    one holds more)."""
    it = iter(sections)
    size = max(1, MAX_GRID_PHASES // max(1, per_section))
    while run := list(itertools.islice(it, size)):
        yield run


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
    return (1.0 + geometry.laplacian_values) ** t


def _fourier_weights(geometry: TorusGeometry, t: float) -> np.ndarray:
    # an overflow reads inf, which embedding_checks and regularity_reports refuse
    with np.errstate(over="ignore"):
        return (1.0 + geometry.mode_norms_sq) ** t


def sobolev_product(s1: TorusSection, s2: TorusSection, t: float) -> AlgebraElement:
    """Pairing weighted by (1 + 4 pi^2 |q|^2)^t, the metric Sobolev product."""
    return _weighted_product(s1, s2, _sobolev_weights(s1.geometry, t))


def fourier_norm(s: TorusSection, t: float) -> float:
    """Scalar norm sqrt(sum_q |c_q|^2 (1 + |q|^2)^t)."""
    w = _fourier_weights(s.geometry, t)
    return float(np.sqrt(np.sum(w * _fiber_norms_sq(s.rows))))


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
    """The constants for Sobolev index t, each ratio taken as one power of a
    base in [1, 4 pi^2], so that no weight overflows on the way.

    Raises HypothesisViolated when t is so large that a ratio over the band
    overflows or underflows to 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        ratios = ((1.0 + geometry.laplacian_values) / (1.0 + geometry.mode_norms_sq)) ** t
    if not (np.isfinite(ratios) & (ratios > 0.0)).all():
        raise HypothesisViolated(
            f"Sobolev index {t:g} leaves the floating-point range: norm ratios from "
            f"{ratios.min():g} to {ratios.max():g} over the band"
        )
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
    with np.errstate(over="ignore"):  # a denominator overflowing to inf makes its term 0
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
    underestimate a supremum, which keeps the inequality one-sided.  This is
    embedding_checks on one section and one multi-index.

    Raises ValidationError, before listing any grid point, when grid points
    times modes exceed MAX_GRID_PHASES.
    """
    return embedding_checks(s.geometry, s.degree, [s], t, [alpha], grid, radius)[0][0]


def embedding_checks(
    geometry: TorusGeometry,
    degree: int,
    sections,
    t: float,
    alphas,
    grid=None,
    radius: Optional[int] = None,
) -> list:
    """embedding_check for every section and multi-index, as one stack.

    Returns, per section in order, the list of embedding_check results for
    the multi-indices in order.  The grid, its phase matrix, the constant
    of each multi-index and each section's fourier_norm are computed once.
    Per block, a run of sections takes one product of its (sections,
    multi-indices, modes) coefficient stack with the phase matrix and one
    _fiber_norms_sq pass over all values.  A run holds as many
    sections as keep its coefficient and value stacks within
    MAX_GRID_PHASES entries per block, so memory does not grow with the
    number of sections; sections may come from a generator and are drawn
    one run at a time.

    Each multi-index's constant is computed, and the grid size checked
    after it, before any grid point is listed: a HypothesisViolated or
    ValidationError comes out in the order a loop over single checks meets
    them.  A t so large that a constant underflows to 0 or overflows, or
    that the Fourier weights overflow, raises HypothesisViolated there too:
    the bound would read 0 * inf.
    """
    n = geometry.dimension
    if radius is None:
        radius = 64 * max(1, geometry.band_limit)
    if grid is None:
        grid = 8 * max(1, geometry.band_limit)
    if np.isscalar(grid):
        count = int(grid) ** n
    else:
        pts = np.asarray(grid, dtype=float).reshape(-1, n)
        count = len(pts)
    weights = _fourier_weights(geometry, t)
    checked, constants = [], []
    for alpha in alphas:
        checked.append(_check_multi_index(alpha, n))
        constants.append(derivative_bound_constant(n, t, checked[-1], radius=radius))
        if not 0.0 < constants[-1] < math.inf or not np.isfinite(weights).all():
            raise HypothesisViolated(
                f"Sobolev index {t:g} leaves the floating-point range: constant "
                f"{constants[-1]:g} for alpha {checked[-1]}, largest Fourier weight {weights.max():g}"
            )
        if count * geometry.num_modes > MAX_GRID_PHASES:
            raise ValidationError(
                f"{count} grid points times {geometry.num_modes} modes exceed the cap of "
                f"{MAX_GRID_PHASES}"
            )
    if np.isscalar(grid):
        # the points of itertools.product(per_axis, repeat=n), in its order
        per_axis = np.arange(int(grid)) / float(grid)
        pts = np.stack(np.meshgrid(*[per_axis] * n, indexing="ij"), axis=-1).reshape(-1, n)
    count = len(pts)

    phases = _phase_matrix(geometry, pts)
    factors = np.array([_derivative_factors(geometry, a) for a in checked]).reshape(-1, geometry.num_modes)
    # entries per section of the largest block's coefficient, value or Gram stack
    m = max(1, geometry.form_fiber(degree).rank)
    per_section = max(count, geometry.num_modes) * len(checked) * max(geometry.algebra.block_sizes) ** 2 * m
    out = []
    for run in _runs(sections, per_section):
        stacks = _stacked_rows(geometry, degree, run)
        norms = np.sqrt(np.sum(weights * _fiber_norms_sq(stacks), axis=-1))
        if count:
            # per block: (sections, alphas, modes, n_b*m*n_b) @ phases -> values at every point
            values = [
                (phases @ (factors[:, :, None] * b.reshape(len(run), 1, geometry.num_modes, -1)))
                .reshape(len(run), len(checked), count, *b.shape[-2:])
                for b in stacks
            ]
            # sqrt is monotone and correctly rounded: the max of the roots, bit for bit
            sups = np.sqrt(_fiber_norms_sq(values).max(axis=-1))
        else:
            sups = np.zeros((len(run), len(checked)))
        for norm_t, sup in zip(norms.tolist(), sups.tolist()):
            out.append([
                {
                    "alpha": alpha,
                    "t": t,
                    "sup_grid": lhs,
                    "norm_t": norm_t,
                    "constant": constant,
                    "bound": constant * norm_t,
                    "passed": lhs <= constant * norm_t,
                    "grid_points": count,
                    "radius": int(radius),
                }
                for alpha, constant, lhs in zip(checked, constants, sup)
            ])
    return out


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
        return cls(geometry, degree, geometry.laplacian_values)

    def apply(self, s: TorusSection) -> TorusSection:
        if s.geometry != self.geometry or s.degree != self.degree:
            raise GeometryMismatch("section does not match the multiplier")
        return s.scale_modes(self.values)

    __call__ = apply

    def adjoint(self) -> "FourierMultiplier":
        return FourierMultiplier(self.geometry, self.degree, np.conj(self.values))


# -- de Rham complex -----------------------------------------------------------------------


def harmonic_rank_report(geometry: TorusGeometry, cutoff: float = 1e-10) -> list:
    """Mode-diagonal harmonic analysis of the de Rham complex.

    Mode q has its own de Rham complex: the form fibers with the symbol maps
    (wedging with 2 pi i q) between them, each followed by its target
    fiber's projection when the fiber is projective.  Over a run of modes
    each degree's maps are one (modes, rows, cols) stack per block; a run
    holds as many modes as keep a stack of the widest form fiber within
    MAX_MODULE_DIM^2 entries, one largest Laplacian, so memory does not grow
    with the band.
    A mode's nullity in degree k is dim - rank D_{k-1} - rank D_k, each rank
    hom.rank_rule's on that mode's spectrum of the differential, from one
    values-only SVD stack per differential and block (none for D_{-1} and
    D_n); only the zero mode may contribute, and its per-block count gives
    the free rank.  The Laplacian is formed only to check it against the
    scalar multiplier 4 pi^2 |q|^2, and D D = 0 is reported as the largest
    raw norm of consecutive symbol maps.  The expected values are
    binomial(n, k) times the fiber's.
    """
    n, r, sizes = geometry.dimension, geometry.fiber.rank, geometry.algebra.block_sizes
    modes, lam = geometry.modes, geometry.laplacian_values
    fibers = [geometry.form_fiber(k) for k in range(n + 1)]
    idents = [identity_morphism(f).mats for f in fibers]
    widest = max(f.rank for f in fibers) * geometry.algebra.dim
    run = max(1, MAX_MODULE_DIM**2 // max(1, widest) ** 2)
    zero = geometry.mode_index[(0,) * n]

    reports = [
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
        for k, slots in enumerate(len(exterior_basis(n, k)) for k in range(n + 1))
    ]
    for start in range(0, len(modes), run):
        part = slice(start, start + run)
        qs = modes[part]
        # D_{-1}, D_0, ..., D_n: both ends pass through the zero module
        coeffs = [np.zeros((len(qs), 0, fibers[0].rank))]
        coeffs += [de_rham_symbol_coeffs(n, k, qs, r) for k in range(n + 1)]
        maps = [_scalar_mats(c, sizes) for c in coeffs]
        # D_0 .. D_{n-1} land in fibers[1:], each cut to its target's projection
        maps[1:-1] = [_onto_target(x, fib) for x, fib in zip(maps[1:-1], fibers[1:])]
        cuts = [rank_rule(block_singular_values(x), sizes, cutoff) for x in maps]
        for k, (fib, rep) in enumerate(zip(fibers, reports)):
            (rank_in, _, kept_in), (rank_out, _, kept_out) = cuts[k], cuts[k + 1]
            nullity = fib.concrete_dim - rank_in - rank_out
            rep["harmonic_dim"] += int(nullity.sum())
            rep["kernel_modes"] += [tuple(int(x) for x in q) for q in qs[nullity != 0]]
            lap = laplacian_mats(maps[k], maps[k + 1])
            residual = [x - lam[part, None, None] * e for x, e in zip(lap, idents[k])]
            rep["max_multiplier_residual"] = max(rep["max_multiplier_residual"], float(_largest_singular(residual).max()))
            if k + 1 < n:
                twice = [a @ b for a, b in zip(maps[k + 1], maps[k + 2])]
                rep["max_square_residual"] = max(rep["max_square_residual"], float(_largest_singular(twice).max()))
            if start <= zero < start + run:
                j = zero - start
                dims = [d - a[j] - b[j] for d, a, b in zip(fib.block_ranks, kept_in, kept_out)]
                rep["free_rank"] = block_free_rank(dims, sizes)
    for rep in reports:
        rep["passed"] = (
            rep["harmonic_dim"] == rep["expected_dim"]
            and rep["kernel_modes"] == [(0,) * n]
            and (rep["expected_free_rank"] is None or rep["free_rank"] == rep["expected_free_rank"])
        )
    return reports


# -- elliptic regularity ----------------------------------------------------------------


def _solve_multipliers(geometry: TorusGeometry) -> tuple:
    """Per mode, 1 / (4 pi^2 |q|^2) off the zero mode (0 on it), and the zero mode's indicator."""
    mult = geometry.laplacian_values
    inv = np.zeros_like(mult)
    nz = mult > 0.0
    inv[nz] = 1.0 / mult[nz]
    return inv, (~nz).astype(float)


def laplace_solve(f: TorusSection) -> tuple:
    """Solve Laplacian u = f - P f with P the projection onto the zero mode.

    Returns (u, Pf); u has zero mean and coefficients f_q / (4 pi^2 |q|^2).
    Modes are integer vectors, so the zero mode is exactly |q|^2 = 0.
    """
    inv, zero = _solve_multipliers(f.geometry)
    return f.scale_modes(inv), f.scale_modes(zero)


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
    vanishes: each mode a block of size 1 whose one value hom.rank_rule
    drops, cut at cutoff times the largest action.  The support must be the
    zero mode for every t.  This is
    regularity_reports on one right-hand side.
    """
    return regularity_reports(geometry, degree, [f], t_values, cutoff)[0]


def regularity_reports(
    geometry: TorusGeometry,
    degree: int,
    fs,
    t_values=(-2.0, 0.0, 2.0),
    cutoff: float = 1e-10,
) -> list:
    """regularity_report for every right-hand side, as one stack.

    The gain constant and the kernel supports depend on the geometry only
    and are computed once.  A run of right-hand sides is solved as one
    (sections, modes, n_b, m*n_b) stack per block, and the fiber norms of
    the residual, the solutions and the right-hand sides take one
    _fiber_norms_sq pass; every t only reweights them.  A run holds as many
    sections as keep that stack within MAX_GRID_PHASES entries per block,
    and the sections may come from a generator.

    A t whose Fourier weights for t or t + 2 overflow, or underflow to 0,
    raises HypothesisViolated naming t, before any right-hand side is drawn.
    On overflow both norms of its gain check would read inf, and inf <= inf
    would pass; on underflow the nonzero modes would weigh nothing, and a
    solution of zero mean would pass with norm 0 whatever it is.
    """
    solution_weights = [_fourier_weights(geometry, t + 2.0) for t in t_values]
    rhs_weights = [_fourier_weights(geometry, t) for t in t_values]
    for t, above, at in zip(t_values, solution_weights, rhs_weights):
        if not (np.isfinite(above).all() and np.isfinite(at).all()):
            raise HypothesisViolated(
                f"Sobolev index {t:g} leaves the floating-point range: largest Fourier weight "
                f"{above.max():g} at t + 2"
            )
        if not (above.all() and at.all()):
            raise HypothesisViolated(
                f"Sobolev index {t:g} leaves the floating-point range: a Fourier weight at t "
                "underflows to 0"
            )
    qsq, lam = geometry.mode_norms_sq, geometry.laplacian_values
    nz = qsq > 0
    gain_constant = float(((1.0 + qsq[nz]) / lam[nz]).max()) if nz.any() else 0.0

    supports = {}
    for t in t_values:
        action = lam * (1.0 + qsq) ** ((t - 2.0) / 2.0)
        action /= (1.0 + qsq) ** (t / 2.0)
        kept = rank_rule(action[:, None], [1] * len(action), cutoff)[2]
        supports[float(t)] = [tuple(int(x) for x in q) for q, k in zip(geometry.modes, kept) if not k]
    values = list(supports.values())
    agree = all(v == values[0] for v in values)
    zero_mode = values[0] == [tuple([0] * geometry.dimension)] if values else False

    # complex multipliers, as FourierMultiplier and scale_modes apply them
    inv, zero = (np.asarray(v, dtype=complex)[:, None, None] for v in _solve_multipliers(geometry))
    lap = np.asarray(lam, dtype=complex)[:, None, None]
    ones = _fourier_weights(geometry, 0.0)
    m = max(1, geometry.form_fiber(degree).rank)
    out = []
    # entries per section of the largest block's stack of residual, solution and right-hand side
    for run in _runs(fs, 3 * geometry.num_modes * max(geometry.algebra.block_sizes) ** 2 * m):
        stacks = []
        for f in _stacked_rows(geometry, degree, run):
            u = inv * f
            # lap u - (f - P f), u and f
            stacks.append(np.stack([lap * u - (f - zero * f), u, f]))
        sq = _fiber_norms_sq(stacks)
        residuals = np.sqrt(np.sum(ones * sq[0], axis=-1))
        solutions = [np.sqrt(np.sum(w * sq[1], axis=-1)) for w in solution_weights]
        rhs_norms = [np.sqrt(np.sum(w * sq[2], axis=-1)) for w in rhs_weights]
        for j, residual in enumerate(residuals.tolist()):
            gains = []
            for t, lhs, rhs in zip(t_values, solutions, rhs_norms):
                lhs, rhs = float(lhs[j]), gain_constant * float(rhs[j])
                gains.append({"t": float(t), "norm_solution": lhs, "norm_rhs": rhs, "passed": lhs <= rhs + 1e-12 * max(1.0, rhs)})
            passed = (
                residual <= 1e-9
                and all(g["passed"] for g in gains)
                and agree
                and zero_mode
            )
            out.append(RegularityReport(
                degree=degree,
                solve_residual=residual,
                gain_constant=gain_constant,
                gains=gains,
                kernel_supports={t: list(v) for t, v in supports.items()},
                supports_agree=agree,
                kernel_is_zero_mode=zero_mode,
                passed=passed,
            ))
    return out
