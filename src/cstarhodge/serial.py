"""JSON file formats for complexes, symbol sample sets and torus sections.

Conventions, shared by every format:
  complex number    [re, im]
  algebra           {"blocks": [n1, n2, ...]}
  algebra element   list of square blocks, each nb x nb of complex numbers
  module            {"rank": m} plus optional "projection": module map matrix
  module map matrix nested rows x cols of algebra elements (rows = source)
  morphism          {"source": module, "target": module, "matrix": matrix}

Loading validates shapes, value types and finiteness and raises
ValidationError with the offending location; malformed JSON raises
ParseError.  A module whose rank times the algebra dimension exceeds
MAX_MODULE_DIM is refused before anything is allocated for it.  Saving
normalizes floats to 17 significant digits, so save/load round-trips are
exact.
"""

from __future__ import annotations

import json
import math
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec
from .chain import ChainComplex
from .errors import CStarHodgeError, ParseError, ValidationError
from .hom import Morphism, _entry_view, identity_morphism
from .module import MAX_MODULE_DIM, ModuleSpec, _entry_slots
from .symbol import SymbolSample
from .torus import TorusGeometry, TorusSection
from .util import format_floats

COMPLEX_SCHEMA = "cstarhodge-complex/1"
SAMPLES_SCHEMA = "cstarhodge-samples/1"
SECTION_SCHEMA = "cstarhodge-section/1"
REPORT_SCHEMA = "cstarhodge-report/1"

__all__ = [
    "COMPLEX_SCHEMA",
    "SAMPLES_SCHEMA",
    "SECTION_SCHEMA",
    "REPORT_SCHEMA",
    "algebra_to_data",
    "algebra_from_data",
    "module_to_data",
    "module_from_data",
    "morphism_to_data",
    "morphism_from_data",
    "complex_to_data",
    "complex_from_data",
    "sample_set_to_data",
    "sample_set_from_data",
    "section_to_data",
    "section_from_data",
    "dump_json",
    "load_json",
    "save_complex",
    "load_complex",
    "save_sample_set",
    "load_sample_set",
    "save_section",
    "load_section",
]


def _fail(where: str, why: str):
    raise ValidationError(f"{where}: {why}")


def _get(data, key: str, where: str):
    if not isinstance(data, dict):
        _fail(where, f"expected an object, got {type(data).__name__}")
    if key not in data:
        _fail(where, f"missing key {key!r}")
    return data[key]


def _number(v, where: str) -> float:
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        _fail(where, f"expected a number, got {type(v).__name__}")
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    if not math.isfinite(x):
        _fail(where, f"expected a finite number, got {x!r}")
    return x


def _complex_from(v, where: str) -> complex:
    if not isinstance(v, (list, tuple)) or len(v) != 2:
        _fail(where, "complex numbers are two-element arrays [re, im]")
    return complex(_number(v[0], where), _number(v[1], where))


def _complex_to(z: complex) -> list:
    return [float(z.real), float(z.imag)]


def _block_to(b: np.ndarray) -> list:
    return [[_complex_to(z) for z in row] for row in b]


def _block_into(out: np.ndarray, data, where: str):
    """Read an nb x nb block of complex numbers into the view out."""
    nb = out.shape[0]
    if not isinstance(data, list) or len(data) != nb:
        _fail(where, f"expected {nb} rows")
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != nb:
            _fail(where, f"row {r}: expected {nb} entries")
        for c, v in enumerate(row):
            out[r, c] = _complex_from(v, f"{where}[{r}][{c}]")


def _element_to(blocks) -> list:
    return [_block_to(np.asarray(b)) for b in blocks]


def _element_into(outs, data, where: str):
    """Read an algebra element into one nb x nb view per algebra block."""
    if not isinstance(data, list) or len(data) != len(outs):
        _fail(where, f"expected {len(outs)} algebra blocks")
    for b, (out, blk) in enumerate(zip(outs, data)):
        _block_into(out, blk, f"{where}.block{b}")


# -- algebra ----------------------------------------------------------------------------


def algebra_to_data(algebra: AlgebraSpec) -> dict:
    return {"blocks": [int(n) for n in algebra.block_sizes]}


def algebra_from_data(data, where: str = "algebra") -> AlgebraSpec:
    blocks = _get(data, "blocks", where)
    if not isinstance(blocks, list) or not blocks:
        _fail(where, "'blocks' must be a nonempty list of positive integers")
    sizes = []
    for i, n in enumerate(blocks):
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            _fail(where, f"block {i}: expected a positive integer, got {n!r}")
        sizes.append(n)
    return AlgebraSpec(tuple(sizes))


# -- module maps as matrices ---------------------------------------------------------------


def matrix_to_data(t: Morphism) -> list:
    """A module map's per-block matrices R_b -> rows x cols of algebra elements."""
    m, n = t.source.rank, t.target.rank
    views = [_entry_view(r, m, n, nb) for nb, r in zip(t.algebra.block_sizes, t.mats)]
    return [
        [_element_to([v[i, :, j, :] for v in views]) for j in range(n)]
        for i in range(m)
    ]


def matrix_from_data(
    algebra: AlgebraSpec, data, rows: int, cols: int, where: str
) -> tuple:
    """rows x cols of algebra elements -> per-block matrices R_b, shape checked first."""
    if not isinstance(data, list) or len(data) != rows:
        _fail(where, f"expected {rows} rows")
    for i, row in enumerate(data):
        if not isinstance(row, list) or len(row) != cols:
            _fail(where, f"row {i}: expected {cols} entries")
    sizes = algebra.block_sizes
    mats = [np.zeros((rows * nb, cols * nb), dtype=complex) for nb in sizes]
    views = [_entry_view(r, rows, cols, nb) for nb, r in zip(sizes, mats)]
    for i, row in enumerate(data):
        for j, entry in enumerate(row):
            _element_into([v[i, :, j, :] for v in views], entry, f"{where}[{i}][{j}]")
    return tuple(mats)


# -- modules -----------------------------------------------------------------------------


def module_to_data(module: ModuleSpec) -> dict:
    out = {"rank": int(module.rank)}
    if module.projection is not None:
        out["projection"] = matrix_to_data(identity_morphism(module))
    return out


def module_from_data(algebra: AlgebraSpec, data, where: str = "module") -> ModuleSpec:
    rank = _get(data, "rank", where)
    if isinstance(rank, bool) or not isinstance(rank, int) or rank < 0:
        _fail(where, f"'rank' must be a nonnegative integer, got {rank!r}")
    if rank * algebra.dim > MAX_MODULE_DIM:
        _fail(
            where,
            f"rank {rank} over blocks {list(algebra.block_sizes)} gives concrete "
            f"dimension {rank * algebra.dim}, above the cap of {MAX_MODULE_DIM}",
        )
    projection = None
    if "projection" in data and data["projection"] is not None:
        projection = matrix_from_data(
            algebra, data["projection"], rank, rank, f"{where}.projection"
        )
    try:
        return ModuleSpec(algebra, rank, projection=projection)
    except CStarHodgeError as e:
        _fail(where, str(e))


# -- morphisms ----------------------------------------------------------------------------


def morphism_to_data(t: Morphism) -> dict:
    return {
        "source": module_to_data(t.source),
        "target": module_to_data(t.target),
        "matrix": matrix_to_data(t),
    }


def morphism_from_data(algebra: AlgebraSpec, data, where: str = "morphism") -> Morphism:
    source = module_from_data(algebra, _get(data, "source", where), f"{where}.source")
    target = module_from_data(algebra, _get(data, "target", where), f"{where}.target")
    mats = matrix_from_data(
        algebra, _get(data, "matrix", where), source.rank, target.rank, f"{where}.matrix"
    )
    try:
        return Morphism(source, target, mats)
    except CStarHodgeError as e:
        _fail(where, str(e))


# -- chain complexes ------------------------------------------------------------------------


def complex_to_data(cx: ChainComplex) -> dict:
    return {
        "schema": COMPLEX_SCHEMA,
        "algebra": algebra_to_data(cx.algebra),
        "modules": [module_to_data(m) for m in cx.modules],
        "differentials": [matrix_to_data(d) for d in cx.diffs],
    }


def complex_from_data(data, tol: float = 1e-9) -> ChainComplex:
    algebra = algebra_from_data(_get(data, "algebra", "complex"))
    raw_modules = _get(data, "modules", "complex")
    if not isinstance(raw_modules, list) or not raw_modules:
        _fail("complex", "'modules' must be a nonempty list")
    modules = [
        module_from_data(algebra, m, f"modules[{i}]") for i, m in enumerate(raw_modules)
    ]
    raw_diffs = _get(data, "differentials", "complex")
    if not isinstance(raw_diffs, list) or len(raw_diffs) != len(modules) - 1:
        _fail(
            "complex",
            f"expected {len(modules) - 1} differentials for {len(modules)} modules",
        )
    diffs = []
    for i, d in enumerate(raw_diffs):
        where = f"differentials[{i}]"
        if isinstance(d, dict):
            t = morphism_from_data(algebra, d, where)
            if t.source.rank != modules[i].rank or t.target.rank != modules[i + 1].rank:
                _fail(where, "embedded source/target disagree with the module list")
            diffs.append(Morphism(modules[i], modules[i + 1], t.mats))
        else:
            mats = matrix_from_data(
                algebra, d, modules[i].rank, modules[i + 1].rank, where
            )
            diffs.append(Morphism(modules[i], modules[i + 1], mats))
    try:
        return ChainComplex(modules, diffs, tol=tol)
    except CStarHodgeError as e:
        _fail("complex", str(e))


# -- symbol sample sets ------------------------------------------------------------------------


def sample_set_to_data(samples) -> dict:
    samples = list(samples)
    if not samples:
        raise ValidationError("sample set: nothing to save")
    fibers = samples[0].fibers
    algebra = fibers[0].algebra
    for s in samples:
        if list(s.fibers) != list(fibers):
            raise ValidationError("sample set: samples disagree on the fiber sequence")
    return {
        "schema": SAMPLES_SCHEMA,
        "algebra": algebra_to_data(algebra),
        "fibers": [module_to_data(m) for m in fibers],
        "samples": [
            {"tag": s.tag, "maps": [matrix_to_data(t) for t in s.maps]}
            for s in samples
        ],
    }


def sample_set_from_data(data, tol: float = 1e-9) -> list:
    algebra = algebra_from_data(_get(data, "algebra", "samples"))
    raw_fibers = _get(data, "fibers", "samples")
    if not isinstance(raw_fibers, list) or not raw_fibers:
        _fail("samples", "'fibers' must be a nonempty list")
    fibers = [
        module_from_data(algebra, m, f"fibers[{i}]") for i, m in enumerate(raw_fibers)
    ]
    raw_samples = _get(data, "samples", "samples")
    if not isinstance(raw_samples, list) or not raw_samples:
        _fail("samples", "'samples' must be a nonempty list")
    out = []
    for i, s in enumerate(raw_samples):
        where = f"samples[{i}]"
        tag = _get(s, "tag", where)
        if not isinstance(tag, str):
            _fail(where, "'tag' must be a string")
        raw_maps = _get(s, "maps", where)
        if not isinstance(raw_maps, list) or len(raw_maps) != len(fibers) - 1:
            _fail(where, f"expected {len(fibers) - 1} maps")
        maps = []
        for k, d in enumerate(raw_maps):
            mats = matrix_from_data(
                algebra, d, fibers[k].rank, fibers[k + 1].rank, f"{where}.maps[{k}]"
            )
            maps.append(Morphism(fibers[k], fibers[k + 1], mats))
        try:
            out.append(SymbolSample(tag, fibers, maps, tol=tol))
        except CStarHodgeError as e:
            _fail(where, str(e))
    return out


# -- torus sections ------------------------------------------------------------------------------


def section_to_data(s: TorusSection) -> dict:
    geo = s.geometry
    coeffs = []
    m = geo.form_fiber(s.degree).rank
    for q in s.support(tol=0.0):
        idx = geo.mode_index[q]
        views = [_entry_slots(b[idx], m, nb) for nb, b in zip(geo.algebra.block_sizes, s.rows)]
        coeffs.append({"q": [int(x) for x in q], "value": [
            _element_to([v[:, i, :] for v in views]) for i in range(m)
        ]})
    return {
        "schema": SECTION_SCHEMA,
        "geometry": {
            "dimension": geo.dimension,
            "band_limit": geo.band_limit,
            "algebra": algebra_to_data(geo.algebra),
            "fiber": module_to_data(geo.fiber),
        },
        "degree": s.degree,
        "coeffs": coeffs,
    }


def section_from_data(data) -> TorusSection:
    raw_geo = _get(data, "geometry", "section")
    algebra = algebra_from_data(_get(raw_geo, "algebra", "section.geometry"))
    fiber = module_from_data(
        algebra, _get(raw_geo, "fiber", "section.geometry"), "section.geometry.fiber"
    )
    n = _get(raw_geo, "dimension", "section.geometry")
    band = _get(raw_geo, "band_limit", "section.geometry")
    for name, v in (("dimension", n), ("band_limit", band)):
        if isinstance(v, bool) or not isinstance(v, int):
            _fail("section.geometry", f"'{name}' must be an integer")
    try:
        geo = TorusGeometry(n, band, fiber)
    except (CStarHodgeError, ValueError) as e:
        _fail("section.geometry", str(e))
    degree = _get(data, "degree", "section")
    if isinstance(degree, bool) or not isinstance(degree, int) or not 0 <= degree <= n:
        _fail("section", f"'degree' must be an integer in 0..{n}")
    per_mode = geo.form_fiber(degree)
    raw_coeffs = _get(data, "coeffs", "section")
    if not isinstance(raw_coeffs, list):
        _fail("section", "'coeffs' must be a list")
    m = per_mode.rank
    rows = [
        np.zeros((geo.num_modes, nb, m * nb), dtype=complex)
        for nb in algebra.block_sizes
    ]
    for i, c in enumerate(raw_coeffs):
        where = f"coeffs[{i}]"
        q = _get(c, "q", where)
        if (
            not isinstance(q, list)
            or len(q) != n
            or any(isinstance(x, bool) or not isinstance(x, int) for x in q)
        ):
            _fail(where, f"'q' must be a list of {n} integers")
        key = tuple(q)
        if key not in geo.mode_index:
            _fail(where, f"mode {key} outside the band |q|_inf <= {band}")
        value = _get(c, "value", where)
        if not isinstance(value, list) or len(value) != m:
            _fail(where, f"'value' must list {m} module entries")
        idx = geo.mode_index[key]
        views = [_entry_slots(b[idx], m, nb) for nb, b in zip(algebra.block_sizes, rows)]
        for e_i, entry in enumerate(value):
            _element_into([v[:, e_i, :] for v in views], entry, f"{where}.value[{e_i}]")
    return TorusSection(geo, degree, rows)


# -- files ----------------------------------------------------------------------------------------


def dump_json(data) -> str:
    """Deterministic rendering: sorted keys, floats at 17 significant digits."""
    return json.dumps(format_floats(data), sort_keys=True, indent=1) + "\n"


def load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from e


def _save(path: str, data):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dump_json(data))


def save_complex(path: str, cx: ChainComplex):
    _save(path, complex_to_data(cx))


def load_complex(path: str, tol: float = 1e-9) -> ChainComplex:
    return complex_from_data(load_json(path), tol=tol)


def save_sample_set(path: str, samples):
    _save(path, sample_set_to_data(samples))


def load_sample_set(path: str, tol: float = 1e-9) -> list:
    return sample_set_from_data(load_json(path), tol=tol)


def save_section(path: str, s: TorusSection):
    _save(path, section_to_data(s))


def load_section(path: str) -> TorusSection:
    return section_from_data(load_json(path))
