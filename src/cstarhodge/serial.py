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
ParseError.  Module maps are read as stacks: all the maps of one shape
(one degree of a sample set, or a single map as the stack of one) become
one (count, rows*nb, cols*nb) array per algebra block from one array
conversion, after each level of nesting and then every number (an int or a
float, not a bool, finite) is checked on the whole level at once.  A level
that fails is cut before its first failing item and the deeper levels go
on with that prefix, so the last fault found is the first malformed
location in file order.  A sample set loads as a SampleSet straight from
the stacks before it, so a failing sample is named ahead of a malformed
location after it.  A map that leaks outside a projective module
(R_b != P_source,b R_b P_target,b beyond the relative tolerance D D = 0
is held to) is refused by name, differentials[k] or samples[j].maps[k];
maps between free modules skip that check.  A section lists each mode at
most once: a second coefficient for a mode is a fault of its keys, named
with the first one.  A module whose rank times the
algebra dimension exceeds MAX_MODULE_DIM is refused before anything is
allocated for it.  A save writes compact JSON (json's C encoder, sorted
keys, separators (",", ":")), every float in its shortest round-trip form
from one tolist() per block of a map or of a degree's stack, so save/load
round-trips are exact; indented files of earlier versions load the same.
It refuses a non-finite number as loading would, and writes nothing.
Reports are rendered by dump_json.

The cyclic garbage collector stays off for the whole life of a file's
parsed tree: load_complex, load_sample_set and load_section parse, convert
and validate, and drop the tree, and a save builds, renders and drops it,
all with the collector paused.  A sample set's tree holds tens of
thousands of lists, all new, so the first allocation after the collector
comes back on would start a pass that walks every one of them and finds
nothing: the tree holds no cycles, and reference counting frees it.  So the
tree must be released inside the pause; freeing it also takes back the
allocation count that would set that pass off.  The caller's collector
state is restored on every exit path, and cyclic garbage made during the
pause (a traceback on an error path) goes to the next pass.
"""

from __future__ import annotations

import gc
import json
import math
from contextlib import contextmanager
from itertools import chain
from typing import Optional

import numpy as np

from .algebra import AlgebraSpec
from .chain import ChainComplex
from .errors import CStarHodgeError, NotAComplex, ParseError, ProjectionLeak, ValidationError
from .hom import Morphism, identity_morphism, projection_residuals
from .module import MAX_MODULE_DIM, ModuleSpec
from .symbol import SampleSet
from .torus import TorusGeometry, TorusSection

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


def _number_fault(v) -> Optional[str]:
    """Why v is not a finite number (an int or a float, not a bool), or None."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        return f"expected a number, got {type(v).__name__}"
    try:
        x = float(v)
    except OverflowError:  # an integer literal beyond the float range
        x = math.inf
    return None if math.isfinite(x) else f"expected a finite number, got {x!r}"


def _unnest(items: list, lengths) -> tuple:
    """items' elements, one level per length, and the (level, index) of the last fault found, or None.

    Each level must hold lists of exactly its length.  A level that does not
    is cut before its first failing item, so a fault found at a deeper level
    lies earlier in the file: the last one found is the first in file order.
    """
    fault = None
    for level, length in enumerate(lengths):
        if not set(map(type, items)) <= {list} or not set(map(len, items)) <= {length}:
            bad = next((t for t, x in enumerate(items) if not isinstance(x, list) or len(x) != length), None)
            if bad is not None:
                fault, items = (level, bad), items[:bad]
        items = list(chain.from_iterable(items))
    return items, fault


def _element_stacks(sizes, elements: list, where) -> tuple:
    """Per algebra block, the (count, nb, nb) complex array of algebra elements, and the first fault.

    Each level of the nesting, then every number (an int or a float, not a
    bool, finite), is checked at once, with one array conversion per block.
    The arrays stop before the first malformed location in file order, which
    the ValidationError names (where(e) names element e), else None.  Blocks
    go in order, each on the elements before the faults found so far.
    """
    blocks, fault = _unnest(elements, (len(sizes),))
    error = None if fault is None else ValidationError(f"{where(fault[1])}: expected {len(sizes)} algebra blocks")
    count = len(blocks) // len(sizes)
    arrays = []
    for b, nb in enumerate(sizes):
        numbers, fault = _unnest(blocks[b : count * len(sizes) : len(sizes)], (nb, nb, 2))
        why = "complex numbers are two-element arrays [re, im]"
        try:
            values = np.array(numbers, dtype=float) if set(map(type, numbers)) <= {int, float} else None
        except OverflowError:  # an integer literal beyond the float range
            values = None
        if values is None or not np.isfinite(values).all():
            bad = next((t for t, v in enumerate(numbers) if _number_fault(v)), len(numbers))
            if bad < len(numbers):  # a number's location is its [re, im] pair's
                fault, why = (2, bad // 2), _number_fault(numbers[bad])
            values = np.array(numbers[:bad], dtype=float)
        arrays.append(values)
        if fault is not None:
            level, index = fault
            count, rest = divmod(index, nb**level)
            name = f"{where(count)}.block{b}"
            error = ValidationError((
                f"{name}: expected {nb} rows",
                f"{name}: row {rest}: expected {nb} entries",
                f"{name}[{rest // nb}][{rest % nb}]: {why}",
            )[level])
    return [v[: 2 * count * nb * nb].view(complex).reshape(count, nb, nb) for nb, v in zip(sizes, arrays)], error


def _matrix_stacks(algebra: AlgebraSpec, matrices: list, rows: int, cols: int, where) -> tuple:
    """Per block, the R_b of rows x cols matrices as one (count, rows*nb, cols*nb) stack, and the first fault.

    As _element_stacks, with where(j) naming matrix j; all of a matrix's
    rows are checked before any of its entries.
    """
    size = rows * cols
    entries, fault = _unnest(matrices, (rows, cols))
    count, error = len(matrices), None
    if fault is not None:
        level, index = fault
        count, row = divmod(index, rows) if level else (index, 0)
        why = f"row {row}: expected {cols} entries" if level else f"expected {rows} rows"
        error = ValidationError(f"{where(count)}: {why}")
        entries = entries[: count * size]  # a malformed matrix's rows go before its entries
    elements, fault = _element_stacks(
        algebra.block_sizes, entries, lambda e: "{}[{}][{}]".format(where(e // size), *divmod(e % size, cols))
    )
    if fault is not None:
        count, error = len(elements[0]) // size, fault
    return [
        e[: count * size]
        .reshape(count, rows, cols, nb, nb)
        .transpose(0, 1, 3, 2, 4)
        .reshape(count, rows * nb, cols * nb)
        for nb, e in zip(algebra.block_sizes, elements)
    ], error


def _stacks_to_data(stacks, rows: int, cols: int, sizes) -> list:
    """Per-block stacks (count, rows*nb, cols*nb) of R_b -> count rows x cols nested lists.

    One tolist() per block, on a float view of the [re, im] pairs.
    """
    count = len(stacks[0])
    per_block = [
        np.ascontiguousarray(st.reshape(count, rows, nb, cols, nb).transpose(0, 1, 3, 2, 4))
        .view(float)
        .reshape(count, rows, cols, nb, nb, 2)
        .tolist()
        for nb, st in zip(sizes, stacks)
    ]
    return [
        [[list(entry) for entry in zip(*row)] for row in zip(*matrix)]
        for matrix in zip(*per_block)
    ]


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
    stacks = [r[None] for r in t.mats]
    return _stacks_to_data(stacks, t.source.rank, t.target.rank, t.algebra.block_sizes)[0]


def matrix_from_data(
    algebra: AlgebraSpec, data, rows: int, cols: int, where: str
) -> tuple:
    """rows x cols of algebra elements -> per-block matrices R_b: the stack of one."""
    stacks, error = _matrix_stacks(algebra, [data], rows, cols, lambda j: where)
    if error is not None:
        raise error
    return tuple(st[0] for st in stacks)


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
    for i, d in enumerate(diffs):
        leak = float(projection_residuals(d.mats, d.source, d.target, d.norm(), tol))
        if leak > tol:
            _fail(f"differentials[{i}]", str(ProjectionLeak(leak)))
    try:
        return ChainComplex(modules, diffs, tol=tol)
    except CStarHodgeError as e:
        _fail("complex", str(e))


# -- symbol sample sets ------------------------------------------------------------------------


def sample_set_to_data(samples) -> dict:
    """A SampleSet, or SymbolSamples sharing their fibers, as sample set data."""
    if not isinstance(samples, SampleSet):
        samples = SampleSet.of(samples)
    fibers = samples.fibers
    sizes = fibers[0].algebra.block_sizes
    per_degree = [_stacks_to_data(st, a.rank, b.rank, sizes) for st, a, b in zip(samples.maps, fibers, fibers[1:])]
    return {
        "schema": SAMPLES_SCHEMA,
        "algebra": algebra_to_data(fibers[0].algebra),
        "fibers": [module_to_data(m) for m in fibers],
        "samples": [{"tag": tag, "maps": list(maps)} for tag, *maps in zip(samples.tags, *per_degree)],
    }


def sample_set_from_data(data, tol: float = 1e-9) -> SampleSet:
    """The SampleSet of the samples' maps, read as one stack per degree and block.

    A malformed sample, a map leaking outside a projective fiber or a sample
    whose maps do not compose to zero is reported at the first such sample
    in file order.
    """
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
    shapes = [(a.rank, b.rank) for a, b in zip(fibers, fibers[1:])]
    tags, raw_maps, error = [], [], None
    for i, s in enumerate(raw_samples):
        where = f"samples[{i}]"
        try:
            tag = _get(s, "tag", where)
            if not isinstance(tag, str):
                _fail(where, "'tag' must be a string")
            maps = _get(s, "maps", where)
            if not isinstance(maps, list) or len(maps) != len(shapes):
                _fail(where, f"expected {len(shapes)} maps")
        except ValidationError as e:
            error = e
            break
        tags.append(tag)
        raw_maps.append(maps)
    stacks = []
    for k, shape in enumerate(shapes):
        where = lambda j, k=k: f"samples[{j}].maps[{k}]"
        st, fault = _matrix_stacks(algebra, [maps[k] for maps in raw_maps], *shape, where)
        stacks.append(st)
        if fault is not None:
            error, raw_maps = fault, raw_maps[: len(st[0])]
    count = len(raw_maps)
    if not count:
        raise error
    tags, stacks = tags[:count], [[b[:count] for b in st] for st in stacks]
    try:
        samples = SampleSet(tags, fibers, stacks, tol=tol)
    except NotAComplex as e:
        _fail(f"samples[{e.index}]", str(e))
    except ProjectionLeak as e:
        _fail(f"samples[{e.index}].maps[{e.degree}]", str(e))
    if error is not None:
        raise error
    return samples


# -- torus sections ------------------------------------------------------------------------------


def section_to_data(s: TorusSection) -> dict:
    geo = s.geometry
    m = geo.form_fiber(s.degree).rank
    support = s.support(tol=0.0)
    idx = [geo.mode_index[q] for q in support]
    values = _stacks_to_data([b[idx] for b in s.rows], 1, m, geo.algebra.block_sizes)
    coeffs = [{"q": [int(x) for x in q], "value": v[0]} for q, v in zip(support, values)]
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
    located, error, first = [], None, {}
    for i, c in enumerate(raw_coeffs):
        where = f"coeffs[{i}]"
        try:
            idx, value = _coefficient(geo, c, m, where)
            if idx in first:
                _fail(where, f"mode {tuple(c['q'])} is listed twice, first in {first[idx]}")
        except ValidationError as e:
            error = e
            break
        first[idx] = where
        located.append((idx, value))
    entries = list(chain.from_iterable(v for _, v in located))
    stacks, fault = _element_stacks(algebra.block_sizes, entries, lambda e: f"coeffs[{e // m}].value[{e % m}]")
    if fault is not None or error is not None:
        raise fault or error
    rows = [np.zeros((geo.num_modes, nb, m * nb), dtype=complex) for nb in algebra.block_sizes]
    for r, nb, st in zip(rows, algebra.block_sizes, stacks):
        values = st.reshape(len(located), m, nb, nb).transpose(0, 2, 1, 3).reshape(len(located), nb, m * nb)
        for j, (idx, _) in enumerate(located):
            r[idx] = values[j]
    return TorusSection(geo, degree, rows)


def _coefficient(geo: TorusGeometry, c, m: int, where: str) -> tuple:
    """(mode index, value) of one section coefficient, its mode and entry count checked."""
    n, band = geo.dimension, geo.band_limit
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
    return geo.mode_index[key], value


# -- files ----------------------------------------------------------------------------------------


def _numpy_scalar(obj):
    """json.dumps hook: numpy scalars as the Python bool, int or float they hold."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


_encode_str = json.encoder.encode_basestring_ascii
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _float_text(x: float) -> str:
    text = float.__repr__(x)
    return _NON_FINITE.get(text, text)


# the JSON text of a scalar, by its exact type
_SCALAR_TEXT = {
    str: _encode_str,
    int: int.__repr__,
    float: _float_text,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): {None: "null"}.__getitem__,
}
_JSON_TYPES = frozenset((*_SCALAR_TEXT, list, tuple, dict))


def _json_base(value):
    """The one JSON type that the type of value derives from, or None.

    No class derives from two of them, and bool, the one subclass among
    them, cannot itself be subclassed.
    """
    return next((t for t in (str, int, float, list, tuple, dict) if isinstance(value, t)), None)


def _key_text(key) -> str:
    """An object key as JSON text: a string, or an int, float, bool or None written as a string."""
    kind = type(key)
    if kind not in _JSON_TYPES:
        kind = _json_base(key)
    if kind is str:
        return _encode_str(key)
    if kind in _SCALAR_TEXT:
        return '"' + _SCALAR_TEXT[kind](key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(value, lead: str, indent: str, out: list):
    """Append the JSON text of value to out, after lead; indent is a newline and value's indent.

    Each scalar is one chunk together with the separator, key and indent
    before it, and each nonempty container adds one chunk that closes it.
    A container writes its items of exact scalar types in its own loop.
    """
    kind = type(value)
    if kind not in _JSON_TYPES:
        kind = _json_base(value)
    if kind is None:
        _write(_numpy_scalar(value), lead, indent, out)
    elif kind is dict:
        if not value:
            out.append(lead + "{}")
            return
        inner = indent + " "
        sep = "," + inner
        lead += "{" + inner
        # keys are distinct, so sorting them orders the items as json's sorted(items()) does
        for key in sorted(value):
            item = value[key]
            head = lead + (_encode_str(key) if type(key) is str else _key_text(key)) + ": "
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                _write(item, head, inner, out)
            else:
                out.append(head + text(item))
            lead = sep
        out.append(indent + "}")
    elif kind is list or kind is tuple:
        if not value:
            out.append(lead + "[]")
            return
        inner = indent + " "
        sep = "," + inner
        lead += "[" + inner
        for item in value:
            text = _SCALAR_TEXT.get(type(item))
            if text is None:
                _write(item, lead, inner, out)
            else:
                out.append(lead + text(item))
            lead = sep
        out.append(indent + "]")
    else:
        out.append(lead + _SCALAR_TEXT[kind](value))


def dump_json(data) -> str:
    """Deterministic rendering: sorted keys, floats in shortest round-trip form.

    The text is json.dumps(data, sort_keys=True, indent=1,
    default=_numpy_scalar) plus a newline, byte for byte, written in one
    recursive pass whose strings go through json's C string encoder.
    """
    out: list = []
    _write(data, "", "\n", out)
    out.append("\n")
    return "".join(out)


@contextmanager
def _collector_paused():
    """The cyclic garbage collector off inside, then back in the state it was in."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if collecting:
            gc.enable()


def load_json(path: str):
    """The parsed JSON tree of the file at path, with the collector paused for the parse.

    The pause covers the parse only.  A caller that converts the tree keeps
    the collector paused until the tree is released, as the load_* readers
    do; otherwise the first pass after the parse walks the whole tree.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as e:
        raise ParseError(f"{path}: {e.strerror or e}") from e
    try:
        with _collector_paused():
            return json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON: {e}") from e


def _save(path: str, to_data, from_data, obj):
    """Write to_data(obj) as compact JSON, the tree built and rendered with the collector paused."""
    with _collector_paused():
        data = to_data(obj)
        try:
            text = json.dumps(data, sort_keys=True, separators=(",", ":"), allow_nan=False, default=_numpy_scalar)
        except ValueError:  # a non-finite number: from_data raises the ValidationError naming it
            from_data(data)
            raise
        del data  # released inside the pause, so no collector pass walks the tree
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def save_complex(path: str, cx: ChainComplex):
    _save(path, complex_to_data, complex_from_data, cx)


def load_complex(path: str, tol: float = 1e-9) -> ChainComplex:
    with _collector_paused():
        return complex_from_data(load_json(path), tol=tol)


def save_sample_set(path: str, samples):
    _save(path, sample_set_to_data, sample_set_from_data, samples)


def load_sample_set(path: str, tol: float = 1e-9) -> SampleSet:
    with _collector_paused():
        return sample_set_from_data(load_json(path), tol=tol)


def save_section(path: str, s: TorusSection):
    _save(path, section_to_data, section_from_data, s)


def load_section(path: str) -> TorusSection:
    with _collector_paused():
        return section_from_data(load_json(path))
