"""The number-by-number reader: the oracle for serial's level-wise checks.

It reads module maps and section coefficients one number at a time, in
file order, allocating a map only after its shape has been checked, and
raises at the first malformed location.  serial reads the same data a whole
level at a time and must name the same location with the same message;
the tests compare the two on pinned and on mutated files.  Unlike serial,
this reader also takes an (re, im) tuple for a complex number, which parsed
JSON never holds.
"""

import math
from contextlib import contextmanager

import numpy as np

from cstarhodge import serial
from cstarhodge.errors import NotAComplex, ProjectionLeak, ValidationError
from cstarhodge.hom import _entry_view
from cstarhodge.module import _entry_slots
from cstarhodge.symbol import SampleSet
from cstarhodge.torus import TorusSection


def _fail(where: str, why: str):
    raise ValidationError(f"{where}: {why}")


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


def _element_into(outs, data, where: str):
    """Read an algebra element into one nb x nb view per algebra block."""
    if not isinstance(data, list) or len(data) != len(outs):
        _fail(where, f"expected {len(outs)} algebra blocks")
    for b, (out, blk) in enumerate(zip(outs, data)):
        _block_into(out, blk, f"{where}.block{b}")


def walk_matrix(algebra, data, rows: int, cols: int, where: str) -> tuple:
    """serial.matrix_from_data number by number: every row's shape, then the entries."""
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


@contextmanager
def _walking():
    """serial's readers with every module map matrix read by walk_matrix."""
    stacked = serial.matrix_from_data
    serial.matrix_from_data = walk_matrix
    try:
        yield
    finally:
        serial.matrix_from_data = stacked


def complex_from_data(data, tol: float = 1e-9):
    """serial.complex_from_data with the differentials and projections walked."""
    with _walking():
        return serial.complex_from_data(data, tol=tol)


def sample_set_from_data(data, tol: float = 1e-9) -> SampleSet:
    """serial.sample_set_from_data walking the samples in file order; the header is taken as valid.

    The samples before the first malformed one make the SampleSet, so a
    sample failing its checks is named ahead of a malformed one after it.
    """
    with _walking():
        algebra = serial.algebra_from_data(data["algebra"])
        fibers = [serial.module_from_data(algebra, m, f"fibers[{i}]") for i, m in enumerate(data["fibers"])]
    shapes = [(a.rank, b.rank) for a, b in zip(fibers, fibers[1:])]
    tags, mats, error = [], [], None
    for i, s in enumerate(data["samples"]):
        where = f"samples[{i}]"
        try:
            tag = serial._get(s, "tag", where)
            if not isinstance(tag, str):
                _fail(where, "'tag' must be a string")
            maps = serial._get(s, "maps", where)
            if not isinstance(maps, list) or len(maps) != len(shapes):
                _fail(where, f"expected {len(shapes)} maps")
            mats.append([
                walk_matrix(algebra, d, *shape, f"{where}.maps[{k}]")
                for k, (d, shape) in enumerate(zip(maps, shapes))
            ])
        except ValidationError as e:
            error = e
            break
        tags.append(tag)
    if not tags:
        raise error
    stacks = [[np.stack(b) for b in zip(*(m[k] for m in mats))] for k in range(len(shapes))]
    try:
        samples = SampleSet(tags, fibers, stacks, tol=tol)
    except NotAComplex as e:
        _fail(f"samples[{e.index}]", str(e))
    except ProjectionLeak as e:
        _fail(f"samples[{e.index}].maps[{e.degree}]", str(e))
    if error is not None:
        raise error
    return samples


def section_from_data(data) -> TorusSection:
    """serial.section_from_data walking the coefficients in file order; the header is serial's.

    A mode listed twice is refused at its second coefficient, after that
    coefficient's keys and before its value's numbers.
    """
    header = serial.section_from_data({**data, "coeffs": []})
    geo, degree = header.geometry, header.degree
    m = geo.form_fiber(degree).rank
    sizes = geo.algebra.block_sizes
    rows = [np.zeros((geo.num_modes, nb, m * nb), dtype=complex) for nb in sizes]
    seen = {}
    for i, c in enumerate(data["coeffs"]):
        where = f"coeffs[{i}]"
        idx, value = serial._coefficient(geo, c, m, where)
        if idx in seen:
            raise ValidationError(f"{where}: mode {tuple(c['q'])} is listed twice, first in coeffs[{seen[idx]}]")
        seen[idx] = i
        views = [_entry_slots(b[idx], m, nb) for nb, b in zip(sizes, rows)]
        for e_i, entry in enumerate(value):
            _element_into([v[:, e_i, :] for v in views], entry, f"{where}.value[{e_i}]")
    return TorusSection(geo, degree, rows)
