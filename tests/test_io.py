import argparse
import collections
import contextlib
import io
import itertools
import json
import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cstarhodge import chain, cli, serial
from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex, random_complex
from cstarhodge.cli import main
from cstarhodge.errors import ParseError, ValidationError
from cstarhodge.hom import Morphism, identity_morphism, random_morphism
from cstarhodge.module import ModuleSpec
from cstarhodge.symbol import de_rham_symbol_sample, random_degenerate_sample
from cstarhodge.torus import TorusGeometry, random_section
from cstarhodge.util import rng_for


def run_cli(args):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(args)
    return code, buf.getvalue()


def test_complex_roundtrip(tmp_path):
    rng = rng_for(7, "io-complex", 0)
    cx, _ = random_complex(rng)
    path = tmp_path / "cx.json"
    serial.save_complex(path, cx)
    cx2 = serial.load_complex(path)
    assert [m.rank for m in cx2.modules] == [m.rank for m in cx.modules]
    for d1, d2 in zip(cx.diffs, cx2.diffs):
        assert (d1 - d2).norm() < 1e-15
    # save(load(f)) reproduces the file byte for byte
    path2 = tmp_path / "cx2.json"
    serial.save_complex(path2, cx2)
    assert path.read_text() == path2.read_text()


def test_module_roundtrip_with_projection():
    alg = AlgebraSpec((2,))
    p = np.diag([1.0, 0.0]).astype(complex)
    mod = ModuleSpec(alg, 1, projection=(p,))
    assert serial.module_from_data(alg, serial.module_to_data(mod)) == mod


def test_morphism_roundtrip():
    alg = AlgebraSpec((2, 1))
    rng = rng_for(7, "io-morphism", 0)
    from cstarhodge.hom import random_morphism
    t = random_morphism(ModuleSpec(alg, 2), ModuleSpec(alg, 3), rng)
    t2 = serial.morphism_from_data(alg, serial.morphism_to_data(t))
    assert (t - t2).norm() < 1e-15


def test_sample_set_roundtrip(tmp_path):
    fiber = ModuleSpec(AlgebraSpec((2,)), 1)
    samples = [
        de_rham_symbol_sample(2, fiber, xi, tag=f"xi{j}")
        for j, xi in enumerate(np.eye(2))
    ]
    path = tmp_path / "samples.json"
    serial.save_sample_set(path, samples)
    loaded = serial.load_sample_set(path)
    assert loaded.tags == ["xi0", "xi1"]
    for j, a in enumerate(samples):
        for m1, stack in zip(a.maps, loaded.maps, strict=True):
            assert max(np.linalg.norm(r - st[j], 2) for r, st in zip(m1.mats, stack)) < 1e-15


def test_section_roundtrip(tmp_path):
    geo = TorusGeometry(2, 1, ModuleSpec(AlgebraSpec((2,)), 2))
    s = random_section(geo, 1, rng_for(7, "io-section", 0))
    path = tmp_path / "section.json"
    serial.save_section(path, s)
    s2 = serial.load_section(path)
    assert s2.geometry == geo and s2.degree == 1
    for b1, b2 in zip(s.rows, s2.rows):
        assert np.allclose(b1, b2, atol=1e-15)


def test_parse_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError):
        serial.load_complex(bad)
    with pytest.raises(ParseError):
        serial.load_complex(tmp_path / "missing.json")


def test_validation_errors(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"algebra": {"blocks": [1]}, "modules": [{"rank": 1}]}))
    with pytest.raises(ValidationError):
        serial.load_complex(bad)
    bad.write_text(json.dumps({"algebra": {"blocks": [0]}, "modules": [], "differentials": []}))
    with pytest.raises(ValidationError):
        serial.load_complex(bad)


def test_square_violation_names_degree(tmp_path):
    mod = ModuleSpec(AlgebraSpec((1,)), 1)
    one = identity_morphism(mod)
    data = {
        "algebra": {"blocks": [1]},
        "modules": [{"rank": 1}, {"rank": 1}, {"rank": 1}],
        "differentials": [
            serial.matrix_to_data(one),
            serial.matrix_to_data(one),
        ],
    }
    path = tmp_path / "square.json"
    path.write_text(json.dumps(data))
    with pytest.raises(ValidationError, match="0"):
        serial.load_complex(path)


def test_cli_hodge_identity_complex(tmp_path):
    mod = ModuleSpec(AlgebraSpec((1,)), 1)
    cx = ChainComplex([mod, mod], [identity_morphism(mod)])
    path = tmp_path / "id.json"
    serial.save_complex(path, cx)
    code, out = run_cli(["hodge", str(path), "--format", "json"])
    rep = json.loads(out)
    assert code == 0
    assert rep["harmonic_dims"] == [0, 0]
    assert rep["passed"] is True


def test_cli_hodge_names_each_chain_map_identity_once(tmp_path):
    cx, _ = random_complex(rng_for(7, "io-chain-map-names", 0))
    path = tmp_path / "cx.json"
    serial.save_complex(path, cx)
    code, out = run_cli(["hodge", str(path), "--format", "json"])
    assert code == 0
    names = [c["name"] for s in json.loads(out)["sections"] for c in s["checks"]]
    assert [n for n in names if "[i" in n] == []
    for i in range(len(cx.diffs)):
        for name in (
            f"p[{i + 1}] D[{i}] = 0",
            f"D[{i}] g[{i}] = g[{i + 1}] D[{i}]",
            f"D[{i}] lap[{i}] = lap[{i + 1}] D[{i}]",
            f"D[{i}] p[{i}] = 0",
        ):
            assert names.count(name) == 1, name


def test_cli_exit_codes(tmp_path):
    rng = rng_for(7, "io-cli", 0)
    cx, _ = random_complex(rng)
    path = tmp_path / "cx.json"
    serial.save_complex(path, cx)
    bad = tmp_path / "bad.json"
    bad.write_text("{")

    assert run_cli(["check-complex", str(path)])[0] == 0
    assert run_cli(["check-complex", str(bad)])[0] == 2
    assert run_cli(["check-complex", str(tmp_path / "none.json")])[0] == 2
    assert run_cli(["parametrix", str(path), "--degree", "0"])[0] == 0
    assert run_cli(["parametrix", str(path), "--degree", "99"])[0] == 2
    # configuration invariant: tolerance must dominate the cutoff
    assert run_cli(["hodge", str(path), "--tol", "1e-12", "--cutoff", "1e-8"])[0] == 2


def test_cli_ellipticity_verdicts(tmp_path):
    fiber = ModuleSpec(AlgebraSpec((2,)), 1)
    good = tmp_path / "good.json"
    serial.save_sample_set(
        good,
        [de_rham_symbol_sample(2, fiber, xi, tag=f"xi{j}") for j, xi in enumerate(np.eye(2))],
    )
    code, out = run_cli(["ellipticity", str(good), "--format", "json"])
    assert code == 0
    assert json.loads(out)["verdict"] == "elliptic"

    sample, _ = random_degenerate_sample(rng_for(7, "io-degen", 0), tag="deg")
    badset = tmp_path / "deg.json"
    serial.save_sample_set(badset, [sample])
    code, out = run_cli(["ellipticity", str(badset), "--format", "json"])
    assert code == 1
    assert json.loads(out)["verdict"] == "not-elliptic"


def test_cli_torus_demo_ranks():
    code, out = run_cli(
        ["torus-demo", "--n", "2", "--band", "2", "--fiber", "1x2",
         "--suite", "derham", "--format", "json"]
    )
    rep = json.loads(out)
    assert code == 0
    assert rep["sections"][0]["info"]["harmonic_free_ranks"] == [1, 2, 1]


def test_cli_torus_demo_all_suites():
    code, out = run_cli(
        ["torus-demo", "--n", "1", "--band", "1", "--fiber", "1x1",
         "--sections", "5", "--seed", "11", "--format", "json"]
    )
    rep = json.loads(out)
    assert code == 0 and rep["passed"] is True
    assert len(rep["sections"]) == 3


def test_cli_text_format(tmp_path):
    rng = rng_for(7, "io-text", 0)
    cx, _ = random_complex(rng)
    path = tmp_path / "cx.json"
    serial.save_complex(path, cx)
    code, out = run_cli(["hodge", str(path)])
    assert code == 0
    assert "result: PASS" in out
    assert "g lap + p = 1" in out


def test_cli_repeated_runs_identical(tmp_path):
    rng = rng_for(7, "io-det", 0)
    cx, _ = random_complex(rng)
    path = tmp_path / "cx.json"
    serial.save_complex(path, cx)
    outs = {run_cli(["hodge", str(path), "--format", "json"])[1] for _ in range(3)}
    assert len(outs) == 1


def test_module_invocation():
    r = subprocess.run(
        [sys.executable, "-m", "cstarhodge", "torus-demo", "--n", "1", "--band", "1",
         "--fiber", "1x1", "--suite", "derham"],
        capture_output=True, text=True,
    )
    assert r.returncode == 0, r.stderr
    assert "result: PASS" in r.stdout


@pytest.mark.parametrize(
    "bad",
    [float("nan"), float("inf"), -float("inf"), 10**400],
    ids=["nan", "inf", "-inf", "huge-int"],
)
def test_non_finite_numbers_rejected_at_load(tmp_path, bad, capsys):
    mod = ModuleSpec(AlgebraSpec((1, 2)), 1)
    cx = ChainComplex([mod, mod], [identity_morphism(mod)])
    data = serial.complex_to_data(cx)
    data["differentials"][0][0][0][1][1][0] = [0.0, bad]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    where = r"differentials\[0\]\[0\]\[0\]\.block1\[1\]\[0\]"
    with pytest.raises(ValidationError, match=where + ": expected a finite number"):
        serial.load_complex(path)
    for cmd in ("hodge", "check-complex"):
        assert run_cli([cmd, str(path)])[0] == 2
        assert "finite number" in capsys.readouterr().err


def test_cli_maps_linalg_failure_to_exit_2(tmp_path, monkeypatch, capsys):
    cx, _ = random_complex(rng_for(7, "io-linalg", 0))
    path = tmp_path / "cx.json"
    serial.save_complex(path, cx)

    def failing_svd(*args, **kwargs):
        raise np.linalg.LinAlgError("SVD did not converge")

    monkeypatch.setattr(np.linalg, "svd", failing_svd)
    assert run_cli(["hodge", str(path)])[0] == 2
    assert "SVD did not converge" in capsys.readouterr().err


def test_cli_linalg_failure_names_the_degree(tmp_path, monkeypatch, capsys):
    # ranks 1, 3, 2 with D_0 = 0: only D_1 keeps singular values, so its thin
    # SVD (3 x 2, taken once for degrees 1 and 2) is the only one a report takes
    mods = [ModuleSpec(AlgebraSpec((1,)), r) for r in (1, 3, 2)]
    d1 = random_morphism(mods[1], mods[2], rng_for(7, "io-linalg-degree", 0))
    path = tmp_path / "cx.json"
    serial.save_complex(path, ChainComplex(mods, [Morphism.zero(mods[0], mods[1]), d1]))
    svd = np.linalg.svd

    def failing_thin_svd(a, *args, **kwargs):
        if kwargs.get("full_matrices", True) is False and np.shape(a)[-2:] == (3, 2):
            raise np.linalg.LinAlgError("SVD did not converge")
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", failing_thin_svd)
    for cmd, degree in ((["hodge"], 1), (["parametrix", "--degree", "1"], 1), (["parametrix", "--degree", "2"], 2)):
        assert run_cli(cmd + [str(path)])[0] == 2
        assert f"numerical failure: degree {degree}: SVD did not converge" in capsys.readouterr().err
    assert run_cli(["parametrix", "--degree", "0", str(path)])[0] == 0


def test_cli_linalg_failure_names_the_chain_map_differential(tmp_path, monkeypatch, capsys):
    # ranks 1, 3, 2: D_1's chain-map residual stack is (4, 3, 2), and its
    # norm fails as an SVD that does not converge would
    mods = [ModuleSpec(AlgebraSpec((1,)), r) for r in (1, 3, 2)]
    d1 = random_morphism(mods[1], mods[2], rng_for(7, "io-linalg-chain-map", 0))
    path = tmp_path / "cx.json"
    serial.save_complex(path, ChainComplex(mods, [Morphism.zero(mods[0], mods[1]), d1]))
    real = chain.certified_norms

    def failing(mats, limit):
        if mats[0].shape == (4, 3, 2):
            raise np.linalg.LinAlgError("SVD did not converge")
        return real(mats, limit)

    monkeypatch.setattr(chain, "certified_norms", failing)
    assert run_cli(["hodge", str(path)])[0] == 2
    err = capsys.readouterr().err
    assert "numerical failure: chain map at differential 1: SVD did not converge" in err


@pytest.mark.parametrize(
    "flags",
    [["--tol", "inf"], ["--tol", "nan"], ["--cutoff", "nan"], ["--cutoff=-inf"]],
    ids=["tol-inf", "tol-nan", "cutoff-nan", "cutoff-neg-inf"],
)
def test_cli_rejects_non_finite_tolerance_and_cutoff(tmp_path, flags, capsys):
    # with --tol inf two identity differentials (D D = 1) would load as a complex
    mod = ModuleSpec(AlgebraSpec((1,)), 1)
    ident = identity_morphism(mod)
    path = tmp_path / "not_a_complex.json"
    data = serial.complex_to_data(ChainComplex([mod, mod], [ident]))
    data["modules"].append(data["modules"][1])
    data["differentials"].append(data["differentials"][0])
    path.write_text(json.dumps(data))
    for cmd in (["hodge", str(path)], ["check-complex", str(path)]):
        assert run_cli(cmd + flags)[0] == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry, message",
    [
        (["--n", "0", "--band", "1"], "dimension must be at least 1"),
        (["--n", "1", "--band", "-1"], "band limit must be nonnegative"),
        (["--n", "12", "--band", "3"], "7^12 modes times 2^12 exterior slots exceed the cap of 4096"),
        (["--n", "1", "--band", "1", "--t", "inf"], "finite Sobolev index"),
    ],
    ids=["n0", "negative-band", "mode-cap", "t-inf"],
)
def test_cli_torus_demo_rejects_bad_geometry(geometry, message, capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("modes listed before the arguments were validated")

    monkeypatch.setattr(itertools, "product", no_enumeration)
    assert run_cli(["torus-demo", "--fiber", "1x1"] + geometry)[0] == 2
    assert message in capsys.readouterr().err


def test_oversized_module_exits_2_before_allocating(tmp_path, capsys):
    # a 74-byte file whose Laplacian would need 14.6 TiB
    path = tmp_path / "huge.json"
    path.write_text(
        '{"algebra":{"blocks":[1]},"modules":[{"rank":1000000}],"differentials":[]}'
    )
    assert len(path.read_bytes()) == 74
    for cmd in ("hodge", "check-complex"):
        assert run_cli([cmd, str(path)])[0] == 2
        err = capsys.readouterr().err
        assert "modules[0]" in err and f"cap of {serial.MAX_MODULE_DIM}" in err


def test_module_size_cap_boundary(monkeypatch):
    monkeypatch.setattr(serial, "MAX_MODULE_DIM", 10)
    alg = AlgebraSpec((1, 2))  # dim 5
    assert serial.module_from_data(alg, {"rank": 2}).rank == 2
    with pytest.raises(ValidationError, match=r"fibers\[1\]: rank 3 .* dimension 15"):
        serial.module_from_data(alg, {"rank": 3}, "fibers[1]")
    # the rank is checked before the projection is read
    with pytest.raises(ValidationError, match="above the cap of 10"):
        serial.module_from_data(alg, {"rank": 3, "projection": "not read"})


def test_matrix_rows_checked_before_allocation(monkeypatch):
    alg = AlgebraSpec((1,))
    one = [[[[1.0, 0.0]]]]

    def no_allocation(*args, **kwargs):
        raise AssertionError("matrix allocated before its rows were checked")

    monkeypatch.setattr(np, "zeros", no_allocation)
    with pytest.raises(ValidationError, match=r"m: row 1: expected 1 entries"):
        serial.matrix_from_data(alg, [[one], [one, one]], 2, 1, "m")
    with pytest.raises(ValidationError, match="m: expected 2 rows"):
        serial.matrix_from_data(alg, [[one]], 2, 1, "m")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--n", "13", "--band", "0", "--suite", "derham"], "2^13 exterior slots exceed the cap"),
        (["--n", "3", "--band", "3", "--suite", "embedding", "--sections", "1"],
         "13824 grid points times 343 modes exceed the cap"),
    ],
    ids=["form-slots", "embedding-grid"],
)
def test_cli_torus_demo_size_caps(argv, message, capsys, monkeypatch):
    # itertools.product lists the modes and np.meshgrid the grid points
    # (tests/test_torus.py::test_embedding_grid_cap shows that it does)
    real = itertools.product

    def modes_unless_refused(*args, **kwargs):
        if argv[1] == "13":
            raise AssertionError("modes listed before the geometry was validated")
        return real(*args, **kwargs)

    def no_grid(*args, **kwargs):
        raise AssertionError("grid points listed before the size was checked")

    monkeypatch.setattr(itertools, "product", modes_unless_refused)
    monkeypatch.setattr(np, "meshgrid", no_grid)
    assert run_cli(["torus-demo", "--fiber", "1x1"] + argv)[0] == 2
    assert message in capsys.readouterr().err


def test_cli_torus_demo_fiber_cap(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("modes listed before the fiber was checked")

    monkeypatch.setattr(itertools, "product", no_enumeration)
    argv = ["torus-demo", "--n", "1", "--band", "0", "--suite", "derham", "--fiber", "3000x1"]
    assert run_cli(argv)[0] == 2
    assert "rank 3000 * dim(A) 1 = 3000 exceeds the cap of 2048" in capsys.readouterr().err


@pytest.mark.parametrize("count", [0, -1])
def test_cli_torus_demo_rejects_sections_below_one(count, capsys):
    argv = ["torus-demo", "--n", "1", "--band", "1", "--fiber", "1x1",
            "--suite", "embedding", "--sections", str(count)]
    assert run_cli(argv)[0] == 2
    assert f"--sections {count}" in capsys.readouterr().err


def test_dump_json_numpy_scalars_match_builtins():
    as_numpy = {
        "float": np.float64(0.1),
        "single": np.float32(0.5),
        "int": np.int64(-3),
        "bool": np.bool_(True),
        "nested": [np.float64(1 / 3), (np.int32(2), np.bool_(False))],
        "inf": np.float64(np.inf),
    }
    as_builtins = {
        "float": 0.1,
        "single": 0.5,
        "int": -3,
        "bool": True,
        "nested": [1 / 3, [2, False]],
        "inf": math.inf,
    }
    assert serial.dump_json(as_numpy) == serial.dump_json(as_builtins)
    with pytest.raises(TypeError):
        serial.dump_json({"array": np.zeros(2)})


def _oracle_json(data) -> str:
    """The text dump_json must match: json's own rendering, run by its pure-Python encoder."""
    return json.dumps(data, sort_keys=True, indent=1, default=serial._numpy_scalar) + "\n"


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 5e-324, 1e16, 10**40, -(10**40)])
    | st.text()
    | st.sampled_from(["", "\u00e9\u2028\U0001f600", "\x00\x1f\"\\/\t\n", "\ud800"])
    | st.floats().map(np.float64)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64)
    | st.booleans().map(np.bool_)
)
_JSON_TREES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4)
    | st.dictionaries(st.floats(), inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(_JSON_TREES)
def test_dump_json_matches_the_json_oracle(data):
    assert serial.dump_json(data) == _oracle_json(data)


@pytest.mark.parametrize(
    "data",
    [
        {3: "a", -0.5: [], 10**20: {}},
        {math.inf: 1, -math.inf: 2, math.nan: 3},
        {True: 1, False: 2},
        {None: [None]},
        {np.float64(0.5): 1, np.str_("k"): np.str_("v")},
        {"counter": collections.Counter(b=2, a=1), "pair": collections.namedtuple("Pair", "x y")(1, 2.5)},
        {(1, 2): 3},
        {np.int64(3): 1},
        {1: 0, "a": 1},
        {"array": np.zeros(2)},
        [np.zeros(0)],
        np.zeros(2),
        object(),
    ],
)
def test_dump_json_keys_and_arrays_behave_as_the_oracle(data):
    try:
        expected = _oracle_json(data)
    except Exception as e:  # the writer must raise the same type
        with pytest.raises(type(e)):
            serial.dump_json(data)
    else:
        assert serial.dump_json(data) == expected


def _cli_outcome(argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of one in-process cli.main call, argparse exits included."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    out, err = capsys.readouterr()
    return code, out, err


def test_cli_reuses_one_parser_across_calls(tmp_path, capsys, monkeypatch):
    cx, _ = random_complex(rng_for(7, "io-parser-reuse", 0))
    cx_path, samples_path = str(tmp_path / "cx.json"), str(tmp_path / "samples.json")
    serial.save_complex(cx_path, cx)
    fiber = ModuleSpec(AlgebraSpec((2,)), 1)
    serial.save_sample_set(
        samples_path,
        [de_rham_symbol_sample(2, fiber, xi, tag=f"xi{j}") for j, xi in enumerate(np.eye(2))],
    )
    calls = [
        ["hodge", cx_path, "--degree", "1", "--format", "json"],
        ["hodge", cx_path],
        ["parametrix", cx_path],
        ["ellipticity", samples_path, "--format", "json"],
        ["torus-demo", "--n", "1", "--band", "1", "--fiber", "1x1", "--sections", "2"],
    ]
    cli.build_parser.cache_clear()
    shared = [_cli_outcome(argv, capsys) for argv in calls]
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 0]
    assert "--degree" in shared[2][2]
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert [_cli_outcome(argv, capsys) for argv in calls] == shared


def test_cli_looks_up_the_command_when_it_runs(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cx.json"
    serial.save_complex(path, random_complex(rng_for(7, "io-parser-patch", 0))[0])
    argv = ["hodge", str(path), "--format", "json"]
    assert _cli_outcome(argv, capsys)[0] == 0
    report = {"command": "hodge", "sections": [], "passed": False}
    monkeypatch.setattr(cli, "cmd_hodge", lambda args, config: (report, False))
    assert _cli_outcome(argv, capsys) == (1, serial.dump_json(report), "")


def test_cli_builds_its_parser_once_per_process(tmp_path, capsys, monkeypatch):
    path = tmp_path / "cx.json"
    serial.save_complex(path, random_complex(rng_for(7, "io-parser-count", 0))[0])
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    counts = []
    for calls in (1, 20):
        cli.build_parser.cache_clear()
        built.clear()
        for _ in range(calls):
            assert _cli_outcome(["check-complex", str(path)], capsys)[0] == 0
        counts.append(len(built))
    assert counts[0] > 0 and counts[0] == counts[1]


def _leaking_files(tmp_path, row):
    """A complex file and a sample set file with one map C -> P C^2, P = diag(1, 0), given by row."""
    alg = AlgebraSpec((1,))
    algebra = serial.algebra_to_data(alg)
    fibers = [{"rank": 1}, serial.module_to_data(ModuleSpec(alg, 2, projection=(np.diag([1.0, 0.0]),)))]
    matrix = [[[[[[x, 0.0]]]] for x in row]]
    cx, samples = tmp_path / "complex.json", tmp_path / "samples.json"
    cx.write_text(json.dumps({"algebra": algebra, "modules": fibers, "differentials": [matrix]}))
    samples.write_text(json.dumps(
        {"algebra": algebra, "fibers": fibers, "samples": [{"tag": "xi", "maps": [matrix]}]}
    ))
    return str(cx), str(samples)


def test_maps_leaking_outside_a_projection_are_refused(tmp_path, capsys):
    # the row [0, 1] is zero as a module map: it lies outside the target's
    # projection, and read as it stands it gave a wrong verdict (elliptic,
    # and harmonic dims [0, 0] with failed identities)
    cx, samples = _leaking_files(tmp_path, [0.0, 1.0])
    for argv, where in (
        (["hodge", cx], "differentials[0]: map leaks outside"),
        (["check-complex", cx], "differentials[0]: map leaks outside"),
        (["ellipticity", samples], "samples[0].maps[0]: map leaks outside"),
    ):
        assert run_cli(argv)[0] == 2
        assert where in capsys.readouterr().err
    # the compressed map [0, 0] is the same module map, read correctly
    cx, samples = _leaking_files(tmp_path, [0.0, 0.0])
    code, out = run_cli(["hodge", cx, "--format", "json"])
    assert code == 0 and json.loads(out)["harmonic_dims"] == [1, 1]
    code, out = run_cli(["ellipticity", samples, "--format", "json"])
    assert code == 1 and json.loads(out)["verdict"] == "not-elliptic"


def test_leak_is_relative_to_the_tolerance(tmp_path, capsys):
    # a leak of 1e-9 relative to the map's norm passes at --tol 1e-8 and fails at 1e-10
    cx, samples = _leaking_files(tmp_path, [1.0, 1e-9])
    for argv in (["hodge", cx], ["ellipticity", samples]):
        assert run_cli(argv + ["--tol", "1e-8"])[0] in (0, 1)
        assert run_cli(argv + ["--tol", "1e-10", "--cutoff", "1e-12"])[0] == 2
        assert "map leaks outside" in capsys.readouterr().err


@pytest.mark.parametrize("t", ["2000", "1e308"])
def test_cli_torus_demo_refuses_a_t_out_of_float_range(t, capsys, monkeypatch):
    # the Fourier weights overflow to inf and the first-order constant
    # underflows to 0, so the bound would read 0 * inf = nan
    from cstarhodge import torus

    def no_grid(*args, **kwargs):
        raise AssertionError("grid points listed before t was validated")

    monkeypatch.setattr(torus, "_phase_matrix", no_grid)
    argv = ["torus-demo", "--n", "1", "--band", "1", "--fiber", "1x1", "--suite", "embedding"]
    assert run_cli(argv + ["--t", t])[0] == 2
    err = capsys.readouterr().err
    assert f"--t {float(t):g}" in err and "floating-point range" in err
    monkeypatch.undo()
    assert run_cli(argv + ["--t", "600"])[0] == 0
