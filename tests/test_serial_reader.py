"""The stacked reader rejects exactly the malformed files the number-by-number reader rejects.

Every file here breaks one number or one level of nesting inside a map, a
module projection or a section coefficient.  The stacked reader's
level-wise checks name the location; the message is the one the
number-by-number reader (serial_oracle) gives, written out in EXPECTED, and
mutated files must draw the same error from both.
"""

import contextlib
import copy
import gc
import io
import json
import os
import re
import sys
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarhodge import serial
from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex
from cstarhodge.cli import main
from cstarhodge.errors import ParseError, ValidationError
from cstarhodge.hom import Morphism, identity_morphism, random_morphism
from cstarhodge.module import ModuleSpec
from cstarhodge.symbol import SampleSet, SymbolSample, de_rham_symbol_sample, elliptic_scan
from cstarhodge.torus import TorusGeometry, TorusSection, random_section
from cstarhodge.util import rng_for
import serial_oracle

ALGEBRA = AlgebraSpec((1, 2))
BIG_LITERAL = "1e999"  # json.dumps writes an infinite float as Infinity, so this goes in as text


def _complex_data() -> dict:
    """A projective middle module between two rank 1 modules; D_1 D_0 = 0."""
    mods = [ModuleSpec(ALGEBRA, 1), ModuleSpec(ALGEBRA, 2, projection=(
        np.diag([1.0, 0.0]).astype(complex), np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
    )), ModuleSpec(ALGEBRA, 1)]
    d0 = Morphism(mods[0], mods[1], [np.array([[1.0, 0.0]]), np.array([[1.0, 0, 0, 0], [0, 1.0, 0, 0]])])
    return serial.complex_to_data(ChainComplex(mods, [d0, Morphism.zero(mods[1], mods[2])]))


def _sample_data(count: int = 8) -> dict:
    fiber = ModuleSpec(ALGEBRA, 1)
    rng = np.random.default_rng(5)
    return serial.sample_set_to_data([
        de_rham_symbol_sample(2, fiber, rng.standard_normal(2), tag=f"s{j}") for j in range(count)
    ])


def _section_data() -> dict:
    geo = TorusGeometry(1, 1, ModuleSpec(ALGEBRA, 2))
    return serial.section_to_data(random_section(geo, 1, rng_for(3, "reader-section", 0)))


# Per format, the first row of the broken matrix of algebra elements, as
# (container, key); a section coefficient's value is a row of its own.
ROWS = {
    "complex": lambda d: (d["differentials"][0], 0),
    "projection": lambda d: (d["modules"][1]["projection"], 0),
    "samples": lambda d: (d["samples"][3]["maps"][1], 0),
    "section": lambda d: (d["coeffs"][2], "value"),
}
BUILDERS = {
    "complex": _complex_data,
    "projection": _complex_data,
    "samples": _sample_data,
    "section": _section_data,
}


def _in_last_entry(edit):
    """Apply edit to the last algebra element of the row."""
    return lambda row, key: edit(row[key][-1])


def _set_number(value):
    return _in_last_entry(lambda e: e[1][1][0].__setitem__(1, value))


def _set_pair(value):
    return _in_last_entry(lambda e: e[1][1].__setitem__(0, value))


CASES = {
    "json-true": _set_number(True),
    "numeric-string": _set_number("1.5"),
    "nan": _set_number(float("nan")),
    "infinity": _set_number(float("inf")),
    "minus-infinity": _set_number(-float("inf")),
    "1e999": _set_number(BIG_LITERAL),
    "huge-int": _set_number(10**400),
    "null": _set_number(None),
    "leaf-re-only": _set_pair([0.5]),
    "leaf-three-parts": _set_pair([0.5, 0.0, 1.0]),
    "list-for-number": _set_number([0.5]),
    "extra-algebra-block": _in_last_entry(lambda e: e.append(e[0])),
    "missing-algebra-block": _in_last_entry(lambda e: e.pop()),
    "short-block-row": _in_last_entry(lambda e: e[1][1].pop()),
    "non-list-block-row": _in_last_entry(lambda e: e[1].__setitem__(1, 5.0)),
    "short-matrix-row": lambda row, key: row[key].pop(),
    "non-list-matrix-row": lambda row, key: row.__setitem__(key, {"a": 1}),
}

# The number-by-number reader's messages for each case.
EXPECTED = {
    ('complex', '1e999'): 'differentials[0][0][1].block1[1][0]: expected a finite number, got inf',
    ('complex', 'extra-algebra-block'): 'differentials[0][0][1]: expected 2 algebra blocks',
    ('complex', 'huge-int'): 'differentials[0][0][1].block1[1][0]: expected a finite number, got inf',
    ('complex', 'infinity'): 'differentials[0][0][1].block1[1][0]: expected a finite number, got inf',
    ('complex', 'json-true'): 'differentials[0][0][1].block1[1][0]: expected a number, got bool',
    ('complex', 'leaf-re-only'): 'differentials[0][0][1].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('complex', 'leaf-three-parts'): 'differentials[0][0][1].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('complex', 'list-for-number'): 'differentials[0][0][1].block1[1][0]: expected a number, got list',
    ('complex', 'minus-infinity'): 'differentials[0][0][1].block1[1][0]: expected a finite number, got -inf',
    ('complex', 'missing-algebra-block'): 'differentials[0][0][1]: expected 2 algebra blocks',
    ('complex', 'nan'): 'differentials[0][0][1].block1[1][0]: expected a finite number, got nan',
    ('complex', 'non-list-block-row'): 'differentials[0][0][1].block1: row 1: expected 2 entries',
    ('complex', 'non-list-matrix-row'): 'differentials[0]: row 0: expected 2 entries',
    ('complex', 'null'): 'differentials[0][0][1].block1[1][0]: expected a number, got NoneType',
    ('complex', 'numeric-string'): 'differentials[0][0][1].block1[1][0]: expected a number, got str',
    ('complex', 'short-block-row'): 'differentials[0][0][1].block1: row 1: expected 2 entries',
    ('complex', 'short-matrix-row'): 'differentials[0]: row 0: expected 2 entries',
    ('projection', '1e999'): 'modules[1].projection[0][1].block1[1][0]: expected a finite number, got inf',
    ('projection', 'extra-algebra-block'): 'modules[1].projection[0][1]: expected 2 algebra blocks',
    ('projection', 'huge-int'): 'modules[1].projection[0][1].block1[1][0]: expected a finite number, got inf',
    ('projection', 'infinity'): 'modules[1].projection[0][1].block1[1][0]: expected a finite number, got inf',
    ('projection', 'json-true'): 'modules[1].projection[0][1].block1[1][0]: expected a number, got bool',
    ('projection', 'leaf-re-only'): 'modules[1].projection[0][1].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('projection', 'leaf-three-parts'): 'modules[1].projection[0][1].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('projection', 'list-for-number'): 'modules[1].projection[0][1].block1[1][0]: expected a number, got list',
    ('projection', 'minus-infinity'): 'modules[1].projection[0][1].block1[1][0]: expected a finite number, got -inf',
    ('projection', 'missing-algebra-block'): 'modules[1].projection[0][1]: expected 2 algebra blocks',
    ('projection', 'nan'): 'modules[1].projection[0][1].block1[1][0]: expected a finite number, got nan',
    ('projection', 'non-list-block-row'): 'modules[1].projection[0][1].block1: row 1: expected 2 entries',
    ('projection', 'non-list-matrix-row'): 'modules[1].projection: row 0: expected 2 entries',
    ('projection', 'null'): 'modules[1].projection[0][1].block1[1][0]: expected a number, got NoneType',
    ('projection', 'numeric-string'): 'modules[1].projection[0][1].block1[1][0]: expected a number, got str',
    ('projection', 'short-block-row'): 'modules[1].projection[0][1].block1: row 1: expected 2 entries',
    ('projection', 'short-matrix-row'): 'modules[1].projection: row 0: expected 2 entries',
    ('samples', '1e999'): 'samples[3].maps[1][0][0].block1[1][0]: expected a finite number, got inf',
    ('samples', 'extra-algebra-block'): 'samples[3].maps[1][0][0]: expected 2 algebra blocks',
    ('samples', 'huge-int'): 'samples[3].maps[1][0][0].block1[1][0]: expected a finite number, got inf',
    ('samples', 'infinity'): 'samples[3].maps[1][0][0].block1[1][0]: expected a finite number, got inf',
    ('samples', 'json-true'): 'samples[3].maps[1][0][0].block1[1][0]: expected a number, got bool',
    ('samples', 'leaf-re-only'): 'samples[3].maps[1][0][0].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('samples', 'leaf-three-parts'): 'samples[3].maps[1][0][0].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('samples', 'list-for-number'): 'samples[3].maps[1][0][0].block1[1][0]: expected a number, got list',
    ('samples', 'minus-infinity'): 'samples[3].maps[1][0][0].block1[1][0]: expected a finite number, got -inf',
    ('samples', 'missing-algebra-block'): 'samples[3].maps[1][0][0]: expected 2 algebra blocks',
    ('samples', 'nan'): 'samples[3].maps[1][0][0].block1[1][0]: expected a finite number, got nan',
    ('samples', 'non-list-block-row'): 'samples[3].maps[1][0][0].block1: row 1: expected 2 entries',
    ('samples', 'non-list-matrix-row'): 'samples[3].maps[1]: row 0: expected 1 entries',
    ('samples', 'null'): 'samples[3].maps[1][0][0].block1[1][0]: expected a number, got NoneType',
    ('samples', 'numeric-string'): 'samples[3].maps[1][0][0].block1[1][0]: expected a number, got str',
    ('samples', 'short-block-row'): 'samples[3].maps[1][0][0].block1: row 1: expected 2 entries',
    ('samples', 'short-matrix-row'): 'samples[3].maps[1]: row 0: expected 1 entries',
    ('section', '1e999'): 'coeffs[2].value[1].block1[1][0]: expected a finite number, got inf',
    ('section', 'extra-algebra-block'): 'coeffs[2].value[1]: expected 2 algebra blocks',
    ('section', 'huge-int'): 'coeffs[2].value[1].block1[1][0]: expected a finite number, got inf',
    ('section', 'infinity'): 'coeffs[2].value[1].block1[1][0]: expected a finite number, got inf',
    ('section', 'json-true'): 'coeffs[2].value[1].block1[1][0]: expected a number, got bool',
    ('section', 'leaf-re-only'): 'coeffs[2].value[1].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('section', 'leaf-three-parts'): 'coeffs[2].value[1].block1[1][0]: complex numbers are two-element arrays [re, im]',
    ('section', 'list-for-number'): 'coeffs[2].value[1].block1[1][0]: expected a number, got list',
    ('section', 'minus-infinity'): 'coeffs[2].value[1].block1[1][0]: expected a finite number, got -inf',
    ('section', 'missing-algebra-block'): 'coeffs[2].value[1]: expected 2 algebra blocks',
    ('section', 'nan'): 'coeffs[2].value[1].block1[1][0]: expected a finite number, got nan',
    ('section', 'non-list-block-row'): 'coeffs[2].value[1].block1: row 1: expected 2 entries',
    ('section', 'non-list-matrix-row'): "coeffs[2]: 'value' must list 2 module entries",
    ('section', 'null'): 'coeffs[2].value[1].block1[1][0]: expected a number, got NoneType',
    ('section', 'numeric-string'): 'coeffs[2].value[1].block1[1][0]: expected a number, got str',
    ('section', 'short-block-row'): 'coeffs[2].value[1].block1: row 1: expected 2 entries',
    ('section', 'short-matrix-row'): "coeffs[2]: 'value' must list 2 module entries",
    "order": "samples[2]: differentials 1 after 0 compose to norm 1.038e+01, not a complex",
}


def _broken_text(fmt: str, case: str) -> str:
    data = BUILDERS[fmt]()
    CASES[case](*ROWS[fmt](data))
    return json.dumps(data).replace(f'"{BIG_LITERAL}"', BIG_LITERAL)


LOADERS = {
    "complex": serial.load_complex,
    "projection": serial.load_complex,
    "samples": serial.load_sample_set,
    "section": serial.load_section,
}
COMMANDS = {"complex": "hodge", "projection": "check-complex", "samples": "ellipticity"}
READERS = {
    "complex": serial.complex_from_data,
    "projection": serial.complex_from_data,
    "samples": serial.sample_set_from_data,
    "section": serial.section_from_data,
}
ORACLES = {
    "complex": serial_oracle.complex_from_data,
    "projection": serial_oracle.complex_from_data,
    "samples": serial_oracle.sample_set_from_data,
    "section": serial_oracle.section_from_data,
}


def _outcome(read, data):
    """read(data) as the dumped text of what it returns, or the type and message of what it raises."""
    try:
        obj = read(data)
    except Exception as e:
        return type(e), str(e)
    if isinstance(obj, ChainComplex):
        return serial.dump_json(serial.complex_to_data(obj))
    if isinstance(obj, SampleSet):
        return serial.dump_json(serial.sample_set_to_data(obj))
    return [r.tobytes() for r in obj.rows]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("fmt", sorted(ROWS))
def test_reader_rejects_with_the_walkers_message(tmp_path, fmt, case, capsys):
    path = tmp_path / "broken.json"
    path.write_text(_broken_text(fmt, case))
    with pytest.raises(ValidationError) as err:
        LOADERS[fmt](str(path))
    assert str(err.value) == EXPECTED[fmt, case]
    assert _outcome(ORACLES[fmt], json.loads(path.read_text())) == (ValidationError, EXPECTED[fmt, case])
    if fmt in COMMANDS:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([COMMANDS[fmt], str(path)]) == 2
        assert EXPECTED[fmt, case] in capsys.readouterr().err


def test_sample_set_errors_are_reported_in_file_order(tmp_path):
    # sample 2 does not square to zero and sample 5 holds a NaN: the stacked
    # conversion fails on the NaN, but sample 2 comes first in the file
    data = _sample_data()
    fibers = [serial.module_from_data(ALGEBRA, f) for f in data["fibers"]]
    rng = rng_for(3, "reader-order", 0)
    data["samples"][2]["maps"][1] = serial.matrix_to_data(random_morphism(fibers[1], fibers[2], rng))
    data["samples"][5]["maps"][0][0][0][0][0][0] = [float("nan"), 0.0]
    path = tmp_path / "order.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as err:
        serial.load_sample_set(str(path))
    assert str(err.value) == EXPECTED["order"]
    # without the NaN the stacked D D = 0 check names the same sample
    data["samples"][5]["maps"][0][0][0][0][0][0] = [0.0, 0.0]
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError) as err:
        serial.load_sample_set(str(path))
    assert str(err.value) == EXPECTED["order"]


def _nan(pair: list):
    pair[0] = float("nan")


def _short(row: list):
    row.pop()


# Two faults in one file, and the one the number-by-number reader names: a
# matrix's row shapes come before its entries, blocks go in file order, and
# a sample's or a coefficient's own keys come after the maps before it; a
# mode listed twice is a fault of the second coefficient's keys.
ORDERED = {
    "row-shape-after-number": (
        "complex",
        [(_nan, ("modules", 1, "projection", 0, 0, 0, 0, 0)), (_short, ("modules", 1, "projection", 1))],
        "modules[1].projection: row 1: expected 2 entries",
    ),
    "block-1-before-later-entry": (
        "complex",
        [(_nan, ("differentials", 0, 0, 1, 0, 0, 0)), (_nan, ("differentials", 0, 0, 0, 1, 1, 1))],
        "differentials[0][0][0].block1[1][1]: expected a finite number, got nan",
    ),
    "number-before-missing-tag": (
        "samples",
        [(lambda s: s.pop("tag"), ("samples", 3)), (_nan, ("samples", 2, "maps", 1, 1, 0, 1, 1, 1))],
        "samples[2].maps[1][1][0].block1[1][1]: expected a finite number, got nan",
    ),
    "number-before-bad-q": (
        "section",
        [(lambda c: c.__setitem__("q", ["a"]), ("coeffs", 2)), (_nan, ("coeffs", 1, "value", 1, 0, 0, 0))],
        "coeffs[1].value[1].block0[0][0]: expected a finite number, got nan",
    ),
    "number-before-repeated-mode": (
        "section",
        [(lambda c: c.__setitem__("q", [-1]), ("coeffs", 2)), (_nan, ("coeffs", 1, "value", 1, 0, 0, 0))],
        "coeffs[1].value[1].block0[0][0]: expected a finite number, got nan",
    ),
    "repeated-mode-before-its-number": (
        "section",
        [(lambda c: c.__setitem__("q", [0]), ("coeffs", 2)), (_nan, ("coeffs", 2, "value", 0, 0, 0, 0))],
        "coeffs[2]: mode (0,) is listed twice, first in coeffs[1]",
    ),
}


def _at(data, path):
    for key in path:
        data = data[key]
    return data


@pytest.mark.parametrize("case", sorted(ORDERED))
def test_the_first_of_two_faults_in_reading_order_is_named(case):
    fmt, edits, message = ORDERED[case]
    data = BUILDERS[fmt]()
    for edit, path in edits:
        edit(_at(data, path))
    assert _outcome(READERS[fmt], data) == (ValidationError, message)
    assert _outcome(ORACLES[fmt], data) == (ValidationError, message)


def test_a_mode_listed_twice_is_refused(tmp_path):
    # the later coefficient used to overwrite the earlier one silently
    data = _section_data()
    data["coeffs"].append({"q": [0], "value": data["coeffs"][2]["value"]})
    message = "coeffs[3]: mode (0,) is listed twice, first in coeffs[1]"
    assert _outcome(READERS["section"], data) == (ValidationError, message)
    assert _outcome(ORACLES["section"], data) == (ValidationError, message)
    path = tmp_path / "section.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match=re.escape(message)):
        serial.load_section(str(path))


def test_a_tuple_is_refused_as_a_complex_number():
    data = _complex_data()["differentials"][0]
    data[0][1][1][1][0] = (0.5, 0.0)
    with pytest.raises(ValidationError) as err:
        serial.matrix_from_data(ALGEBRA, data, 1, 2, "d")
    assert str(err.value) == "d[0][1].block1[1][0]: complex numbers are two-element arrays [re, im]"


# What a mutation puts in place of a node or inserts into a list, besides a
# copy of a node of the same file.
REPLACEMENTS = [
    True, None, "1.5", 0.5, -2, 10**400, float("nan"), float("inf"), -float("inf"),
    [], [0.5], [0.5, 0.0], [0.5, 0.0, 1.0], [[0.5, 0.0]], {}, {"q": [0]},
]
# Per format, the nodes a mutation may touch: those inside the maps,
# projections, samples or coefficients, whose reading is under test.
MUTABLE = {
    "complex": lambda p: p[0] == "differentials" and len(p) > 1 or p[:1] == ("modules",) and p[2:3] == ("projection",),
    "samples": lambda p: p[0] == "samples" and len(p) > 1,
    "section": lambda p: p[0] == "coeffs" and len(p) > 1,
}


def _paths(node, path=()):
    """The path of every node below node, in file order."""
    items = enumerate(node) if isinstance(node, list) else node.items() if isinstance(node, dict) else ()
    for key, child in items:
        yield path + (key,)
        yield from _paths(child, path + (key,))


def _mutate(data, draw, fmt: str):
    """Replace, drop, duplicate or insert one node among the mutable ones."""
    paths = [p for p in _paths(data) if MUTABLE[fmt](p)]
    path = draw(st.sampled_from(paths))
    parent, key = _at(data, path[:-1]), path[-1]
    op = draw(st.sampled_from(["replace", "drop", "duplicate", "insert"]))
    new = _at(data, draw(st.sampled_from(paths))) if draw(st.booleans()) else draw(st.sampled_from(REPLACEMENTS))
    new = copy.deepcopy(new)  # REPLACEMENTS and the file's own nodes stay as they are
    if op == "drop":
        del parent[key]
    elif op == "replace" or not isinstance(parent, list):
        parent[key] = new
    else:
        parent.insert(key, copy.deepcopy(parent[key]) if op == "duplicate" else new)


SMALL = {"complex": _complex_data, "samples": lambda: _sample_data(4), "section": _section_data}


@settings(max_examples=150, deadline=None)
@given(draw=st.data(), fmt=st.sampled_from(sorted(SMALL)), edits=st.integers(1, 3))
def test_mutated_files_draw_the_oracles_error(draw, fmt, edits):
    # whatever is broken, the reader raises what the number-by-number reader
    # raises, or both read the same maps
    data = SMALL[fmt]()
    for _ in range(edits):
        _mutate(data, draw.draw, fmt)
    assert _outcome(READERS[fmt], data) == _outcome(ORACLES[fmt], data)


def _entrywise_matrix_to_data(t: Morphism) -> list:
    """The writer as it was: one np.stack(...).tolist() per entry and block."""
    m, n = t.source.rank, t.target.rank
    views = [r.reshape(m, nb, n, nb) for nb, r in zip(t.algebra.block_sizes, t.mats)]
    return [
        [[np.stack((v[i, :, j, :].real, v[i, :, j, :].imag), axis=-1).tolist() for v in views]
         for j in range(n)]
        for i in range(m)
    ]


def _entrywise_section_values(section) -> list:
    """The section writer as it was: each coefficient's entries one by one."""
    geo = section.geometry
    m = geo.form_fiber(section.degree).rank
    values = []
    for q in section.support(tol=0.0):
        views = [u.reshape(nb, m, nb) for nb, u in zip(geo.algebra.block_sizes, section.coefficient(q).rows)]
        values.append([
            [np.stack((v[:, i, :].real, v[:, i, :].imag), axis=-1).tolist() for v in views]
            for i in range(m)
        ])
    return values


def _negated(t: Morphism) -> Morphism:
    """-t, so that every zero of t is written as -0.0 in both parts."""
    return Morphism(t.source, t.target, [-r for r in t.mats])


def test_writer_output_is_byte_identical_to_the_entrywise_writer(monkeypatch):
    # a complex with a projective module, a sample set and a section, each
    # holding -0.0 in real and imaginary parts
    cx = serial.complex_from_data(_complex_data())
    cx = ChainComplex(cx.modules, [_negated(d) for d in cx.diffs])
    loaded = serial.sample_set_from_data(_sample_data())
    samples = SampleSet(loaded.tags, loaded.fibers, [[-r for r in st] for st in loaded.maps])
    geo = TorusGeometry(2, 1, ModuleSpec(ALGEBRA, 2))
    section = random_section(geo, 1, rng_for(3, "reader-writer", 0))
    section = TorusSection(geo, 1, [-np.where(r.real > 0, 0.0, r) for r in section.rows])
    texts = [
        serial.dump_json(serial.complex_to_data(cx)),
        serial.dump_json(serial.sample_set_to_data(samples)),
        serial.dump_json([c["value"] for c in serial.section_to_data(section)["coeffs"]]),
    ]
    assert all("-0.0" in t for t in texts)
    assert serial.dump_json(_entrywise_section_values(section)) == texts[2]
    monkeypatch.setattr(serial, "matrix_to_data", _entrywise_matrix_to_data)
    assert serial.dump_json(serial.complex_to_data(cx)) == texts[0]
    fibers = samples.fibers
    entrywise = [
        {"tag": tag, "maps": [
            _entrywise_matrix_to_data(Morphism(a, b, [r[j] for r in st]))
            for st, a, b in zip(samples.maps, fibers, fibers[1:])
        ]}
        for j, tag in enumerate(samples.tags)
    ]
    assert serial.dump_json(dict(serial.sample_set_to_data(samples), samples=entrywise)) == texts[1]


NUMBERS = st.sampled_from([0.0, -0.0, 5e-324, -1.5e308]) | st.floats(allow_nan=False, allow_infinity=False)


def _draw_matrix(data, rows: int, cols: int) -> np.ndarray:
    """A complex matrix filled through its float view, so -0.0 keeps its sign in both parts."""
    z = np.empty((rows, cols), dtype=complex)
    z.view(float).reshape(-1)[:] = data.draw(st.lists(NUMBERS, min_size=2 * z.size, max_size=2 * z.size))
    return z


def _same_bits(a, b) -> bool:
    return all(x.shape == y.shape and x.tobytes() == y.tobytes() for x, y in zip(a, b, strict=True))


@settings(max_examples=40, deadline=None)
@given(
    data=st.data(),
    blocks=st.sampled_from([(1,), (2,), (1, 2)]),
    ranks=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    count=st.integers(1, 3),
)
def test_round_trip_is_bitwise(data, blocks, ranks, count):
    algebra = AlgebraSpec(blocks)
    mods = [ModuleSpec(algebra, r) for r in ranks]
    maps = [
        Morphism(*mods, [_draw_matrix(data, ranks[0] * nb, ranks[1] * nb) for nb in blocks])
        for _ in range(count)
    ]
    # the reader reads back the written maps
    for t in maps:
        raw = json.loads(json.dumps(serial.matrix_to_data(t)))
        assert _same_bits(serial.matrix_from_data(algebra, raw, *ranks, "m"), t.mats)
    # a complex, and a sample set of count one-map samples (neither has a D D = 0 pair)
    cx = serial.complex_from_data(json.loads(serial.dump_json(serial.complex_to_data(ChainComplex(mods, maps[:1])))))
    assert _same_bits(cx.diffs[0].mats, maps[0].mats)
    samples = [SymbolSample(f"s{j}", mods, [t]) for j, t in enumerate(maps)]
    loaded = serial.sample_set_from_data(json.loads(serial.dump_json(serial.sample_set_to_data(samples))))
    assert loaded.tags == [s.tag for s in samples]
    for j, t in enumerate(maps):
        assert _same_bits([st[j] for st in loaded.maps[0]], t.mats)
    # a section whose modes are all drawn (support() skips modes that read as zero)
    geo = TorusGeometry(1, 1, ModuleSpec(algebra, max(1, ranks[0])))
    m = geo.form_fiber(0).rank
    rows = [np.stack([_draw_matrix(data, nb, m * nb) for _ in range(geo.num_modes)]) for nb in blocks]
    section = TorusSection(geo, 0, rows)
    back = serial.section_from_data(json.loads(serial.dump_json(serial.section_to_data(section))))
    kept = [geo.mode_index[q] for q in section.support(tol=0.0)]
    assert _same_bits([r[kept] for r in back.rows], [r[kept] for r in rows])


def test_svd_count_does_not_grow_with_the_samples(tmp_path, monkeypatch):
    # loading checks D D = 0 and reads every map's singular values from one
    # SVD per degree and block over the whole stack, and the scan reuses them
    fiber = ModuleSpec(ALGEBRA, 1)
    rng = np.random.default_rng(11)
    counts = []
    for samples in (4, 64):
        path = tmp_path / f"samples-{samples}.json"
        serial.save_sample_set(str(path), [
            de_rham_symbol_sample(3, fiber, xi, tag=f"s{j}")
            for j, xi in enumerate(rng.standard_normal((samples, 3)))
        ])
        svd = np.linalg.svd
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return svd(*args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        cert = elliptic_scan(serial.load_sample_set(str(path)))
        monkeypatch.undo()
        assert cert.verdict == "elliptic"
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0


def _serial_calls(read, data) -> int:
    """The number of calls into serial's Python functions while read(data) runs."""
    calls = []

    def profile(frame, event, arg):
        if event == "call" and frame.f_code.co_filename == serial.__file__:
            calls.append(frame.f_code.co_name)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        read(data)
    finally:
        sys.setprofile(previous)
    return len(calls)


def _sized_data(blocks) -> dict:
    """A complex, a sample set and a section over the algebra of the given blocks, all with two blocks."""
    algebra = AlgebraSpec(blocks)
    rng = rng_for(3, "reader-calls", 0)
    mods = [ModuleSpec(algebra, 1), ModuleSpec(algebra, 2, projection=identity_morphism(ModuleSpec(algebra, 2)).mats)]
    fiber = ModuleSpec(algebra, 1)
    geo = TorusGeometry(1, 1, ModuleSpec(algebra, 2))
    return {
        "complex": serial.complex_to_data(ChainComplex(mods, [random_morphism(*mods, rng)])),
        "samples": serial.sample_set_to_data([
            de_rham_symbol_sample(2, fiber, rng.standard_normal(2), tag=f"s{j}") for j in range(4)
        ]),
        "section": serial.section_to_data(random_section(geo, 1, rng)),
    }


def test_loading_makes_no_python_call_per_number():
    # the same files over blocks of sizes 3 and 4 hold five times the numbers
    # of those over sizes 1 and 2, and the reader makes as many calls
    small, large = _sized_data((1, 2)), _sized_data((3, 4))
    for fmt in small:
        assert _serial_calls(READERS[fmt], small[fmt]) == _serial_calls(READERS[fmt], large[fmt]) > 0


def test_loading_and_scanning_builds_no_morphism(tmp_path, monkeypatch):
    # a sample set goes from the file to the verdict as stacks: no map of a
    # single sample is ever built, whatever the number of samples
    fiber = ModuleSpec(ALGEBRA, 1)
    rng = np.random.default_rng(13)
    init = Morphism.__init__
    for samples in (4, 64):
        path = tmp_path / f"samples-{samples}.json"
        serial.save_sample_set(str(path), [
            de_rham_symbol_sample(3, fiber, xi, tag=f"s{j}")
            for j, xi in enumerate(rng.standard_normal((samples, 3)))
        ])
        calls = []

        def counting(self, *args, **kwargs):
            calls.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(Morphism, "__init__", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["ellipticity", str(path)]) == 0
        monkeypatch.undo()
        assert calls == []


def test_load_json_pauses_the_collector_and_restores_it(tmp_path, monkeypatch):
    import gc

    path = tmp_path / "data.json"
    path.write_text("[1, 2]")
    seen = []
    loads = json.loads

    def spy(text):
        seen.append(gc.isenabled())
        return loads(text)

    monkeypatch.setattr(json, "loads", spy)
    enabled = gc.isenabled()
    try:
        for state in (True, False):
            (gc.enable if state else gc.disable)()
            assert serial.load_json(str(path)) == [1, 2]
            assert gc.isenabled() is state
            path.write_text("[1,")
            with pytest.raises(ParseError):
                serial.load_json(str(path))
            assert gc.isenabled() is state
            path.write_text("[1, 2]")
    finally:
        (gc.enable if enabled else gc.disable)()
    assert seen == [False] * 4


FROM_DATA = {"complex": "complex_from_data", "samples": "sample_set_from_data", "section": "section_from_data"}


@contextlib.contextmanager
def _collector(collecting: bool):
    """The collector switched on or off inside, and back in its former state after."""
    enabled = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if enabled else gc.disable)()


def _spy(monkeypatch, name: str, seen: list, owner=serial):
    """Replace owner.<name> by a call that records gc.isenabled() on entry."""
    real = getattr(owner, name)

    def spy(*args, **kwargs):
        seen.append(gc.isenabled())
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)


def _not_a_complex_text() -> str:
    """Sample set text whose sample 2 fails D D = 0."""
    data = _sample_data()
    fibers = [serial.module_from_data(ALGEBRA, f) for f in data["fibers"]]
    rng = rng_for(3, "reader-order", 0)
    data["samples"][2]["maps"][1] = serial.matrix_to_data(random_morphism(fibers[1], fibers[2], rng))
    return json.dumps(data)


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("fmt", sorted(FROM_DATA))
def test_loaders_convert_with_the_collector_paused(tmp_path, monkeypatch, fmt, collecting):
    # the tree is converted and released before the collector comes back on,
    # and the caller's state is back after a load and after each kind of error
    seen = []
    _spy(monkeypatch, FROM_DATA[fmt], seen)
    cases = [
        (json.dumps(BUILDERS[fmt]()), None),
        ("[1,", ParseError),
        (_broken_text(fmt, "nan"), ValidationError),
    ]
    if fmt == "samples":
        cases.append((_not_a_complex_text(), ValidationError))
    path = tmp_path / "data.json"
    with _collector(collecting):
        for text, error in cases:
            path.write_text(text)
            with pytest.raises(error) if error else contextlib.nullcontext():
                LOADERS[fmt](str(path))
            assert gc.isenabled() is collecting
    assert seen == [False] * (len(cases) - 1)  # a parse error never reaches the conversion


@pytest.mark.parametrize("collecting", [True, False])
def test_saves_render_with_the_collector_paused(tmp_path, monkeypatch, collecting):
    items = [
        (serial.save_complex, serial.complex_from_data(_complex_data())),
        (serial.save_sample_set, serial.sample_set_from_data(_sample_data())),
        (serial.save_section, serial.section_from_data(_section_data())),
    ]
    seen = []
    _spy(monkeypatch, "dumps", seen, owner=serial.json)  # the renderer of files
    with _collector(collecting):
        for save, item in items:
            save(str(tmp_path / "out.json"), item)
            assert gc.isenabled() is collecting
    assert seen == [False] * len(items)


def test_no_collector_pass_starts_while_a_sample_set_is_converted(tmp_path, monkeypatch):
    # at threshold 1 every new container would start a pass, so one does
    # after the load, and none while the tree is converted
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(_sample_data()))
    converting, starts = [False], []
    from_data = serial.sample_set_from_data

    def spy(*args, **kwargs):
        converting[0] = True
        try:
            return from_data(*args, **kwargs)
        finally:
            converting[0] = False

    def hook(phase, info):
        if phase == "start":
            starts.append(converting[0])

    monkeypatch.setattr(serial, "sample_set_from_data", spy)
    thresholds = gc.get_threshold()
    with _collector(True):
        gc.set_threshold(1)
        gc.callbacks.append(hook)
        try:
            serial.load_sample_set(str(path))
            [[] for _ in range(10)]
        finally:
            gc.callbacks.remove(hook)
            gc.set_threshold(*thresholds)
    assert starts and not any(starts)


# -- saved files: compact text, indented files of earlier versions, non-finite numbers ----------

SAVERS = {"complex": serial.save_complex, "samples": serial.save_sample_set, "section": serial.save_section}
TO_DATA = {"complex": serial.complex_to_data, "samples": serial.sample_set_to_data, "section": serial.section_to_data}


def _contents(obj) -> list:
    """What an object of a file format holds: modules, tags, geometry, and every array's shape and bytes."""
    def module(m):
        return m.rank, m.projection and [(p.shape, p.tobytes()) for p in m.projection]

    def arrays(mats):
        return [(a.shape, a.tobytes()) for a in mats]

    if isinstance(obj, ChainComplex):
        return [module(m) for m in obj.modules] + [arrays(d.mats) for d in obj.diffs]
    if isinstance(obj, SampleSet):
        return [obj.tags] + [module(m) for m in obj.fibers] + [arrays(st) for st in obj.maps]
    geo = obj.geometry
    return [geo.dimension, geo.band_limit, geo.algebra.block_sizes, module(geo.fiber), obj.degree, arrays(obj.rows)]


@pytest.mark.parametrize("fmt", sorted(SAVERS))
def test_files_are_compact_and_indented_files_load_the_same(tmp_path, fmt):
    obj = getattr(serial, FROM_DATA[fmt])(BUILDERS[fmt]())
    data = TO_DATA[fmt](obj)
    compact, indented = tmp_path / "compact.json", tmp_path / "indented.json"
    SAVERS[fmt](str(compact), obj)
    assert compact.read_text() == json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    indented.write_text(serial.dump_json(data))  # the layout saves wrote before files were compact
    assert json.loads(indented.read_text()) == json.loads(compact.read_text())
    assert _contents(LOADERS[fmt](str(compact))) == _contents(LOADERS[fmt](str(indented))) == _contents(obj)


@settings(max_examples=30, deadline=None)
@given(
    data=st.data(),
    blocks=st.sampled_from([(1,), (2,), (1, 2)]),
    ranks=st.tuples(st.integers(0, 2), st.integers(0, 2)),
    count=st.integers(1, 3),
)
def test_save_load_round_trip_is_exact(data, blocks, ranks, count):
    algebra = AlgebraSpec(blocks)
    mods = [ModuleSpec(algebra, r) for r in ranks]
    maps = [
        Morphism(*mods, [_draw_matrix(data, ranks[0] * nb, ranks[1] * nb) for nb in blocks])
        for _ in range(count)
    ]
    geo = TorusGeometry(1, 1, ModuleSpec(algebra, max(1, ranks[0])))
    m = geo.form_fiber(0).rank
    section = TorusSection(geo, 0, [np.stack([_draw_matrix(data, nb, m * nb) for _ in range(geo.num_modes)]) for nb in blocks])
    # a mode whose entries all read as zero is not written and loads as +0.0
    kept = [geo.mode_index[q] for q in section.support(tol=0.0)]
    rows = [np.zeros_like(r) for r in section.rows]
    for r, written in zip(rows, section.rows):
        r[kept] = written[kept]
    cases = [
        ("complex", ChainComplex(mods, maps[:1]), None),
        ("samples", SampleSet.of([SymbolSample(f"s{j}", mods, [t]) for j, t in enumerate(maps)]), None),
        ("section", section, TorusSection(geo, 0, rows)),
    ]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "file.json")
        for fmt, obj, expected in cases:
            SAVERS[fmt](path, obj)
            assert _contents(LOADERS[fmt](path)) == _contents(expected or obj)


def _refused_as_loading_refuses(tmp_path, fmt, obj) -> str:
    """The save's ValidationError for obj, the one loading its data as json.dumps writes it gives; no file is written."""
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(TO_DATA[fmt](obj)))  # with NaN and Infinity literals
    with pytest.raises(ValidationError) as loaded:
        LOADERS[fmt](str(plain))
    path = tmp_path / "saved.json"
    with pytest.raises(ValidationError) as saved:
        SAVERS[fmt](str(path), obj)
    assert str(saved.value) == str(loaded.value)
    assert not path.exists()
    return str(saved.value)


def test_a_complex_with_an_infinite_entry_is_not_saved(tmp_path):
    mods = [ModuleSpec(ALGEBRA, 1), ModuleSpec(ALGEBRA, 1)]
    mats = [np.zeros((1, 1), complex), np.zeros((2, 2), complex)]
    mats[1][1, 0] = complex(0.0, np.inf)
    cx = ChainComplex(mods, [Morphism(*mods, mats)])
    message = _refused_as_loading_refuses(tmp_path, "complex", cx)
    assert message == "differentials[0][0][0].block1[1][0]: expected a finite number, got inf"


def test_a_sample_set_with_an_infinite_entry_is_not_saved(tmp_path):
    mods = [ModuleSpec(AlgebraSpec((1,)), 1)] * 2
    samples = [
        SymbolSample(f"s{j}", mods, [Morphism(*mods, [np.array([[v]], dtype=complex)])])
        for j, v in enumerate([1.0, 2.0, -np.inf, np.inf])
    ]
    message = _refused_as_loading_refuses(tmp_path, "samples", SampleSet.of(samples))
    assert message == "samples[2].maps[0][0][0].block0[0][0]: expected a finite number, got -inf"


def test_a_section_with_a_nan_coefficient_is_not_saved(tmp_path):
    # support() once compared NaN > tol as false, so the save dropped the
    # mode and the file loaded with that coefficient zero
    geo = TorusGeometry(1, 1, ModuleSpec(AlgebraSpec((1,)), 1))
    rows = np.zeros((geo.num_modes, 1, 1), dtype=complex)
    rows[geo.mode_index[(-1,)]] = np.nan
    rows[geo.mode_index[(1,)]] = 1.0
    message = _refused_as_loading_refuses(tmp_path, "section", TorusSection(geo, 0, [rows]))
    assert message == "coeffs[0].value[0].block0[0][0]: expected a finite number, got nan"


def test_a_sample_set_save_peaks_below_8_mib(tmp_path):
    # 64 de Rham samples at n = 3 on a rank 2 fiber over (2, 1): the tree and
    # the 0.3 MB compact text peak near 6 MiB; the indented rendering of the
    # same tree (1.5 MB of text, a string per number) peaked at 11.25 MiB
    fiber = ModuleSpec(AlgebraSpec((2, 1)), 2)
    covectors = np.random.default_rng(0).standard_normal((64, 3))
    samples = SampleSet.of([de_rham_symbol_sample(3, fiber, xi, tag=f"xi{j:02d}") for j, xi in enumerate(covectors)])
    path = str(tmp_path / "samples.json")
    serial.save_sample_set(path, samples)  # a first save outside the trace
    tracemalloc.start()
    try:
        serial.save_sample_set(path, samples)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20
