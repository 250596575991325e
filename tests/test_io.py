import contextlib
import io
import itertools
import json
import subprocess
import sys

import numpy as np
import pytest

from cstarhodge import serial
from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex, random_complex
from cstarhodge.cli import main
from cstarhodge.errors import ParseError, ValidationError
from cstarhodge.hom import identity_morphism
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
    assert [s.tag for s in loaded] == ["xi0", "xi1"]
    for a, b in zip(samples, loaded):
        for m1, m2 in zip(a.maps, b.maps):
            assert (m1 - m2).norm() < 1e-15


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
    data = serial.complex_to_data(ChainComplex([mod, mod, mod], [ident, ident], validate=False))
    path.write_text(json.dumps(data))
    for cmd in (["hodge", str(path)], ["check-complex", str(path)]):
        assert run_cli(cmd + flags)[0] == 2
        assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "geometry, message",
    [
        (["--n", "0", "--band", "1"], "dimension must be at least 1"),
        (["--n", "1", "--band", "-1"], "band limit must be nonnegative"),
        (["--n", "12", "--band", "3"], "7^12 modes exceed the cap"),
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
    real = itertools.product

    def modes_only(*args, **kwargs):
        if any(isinstance(a, np.ndarray) for a in args):
            raise AssertionError("grid points listed before the size was checked")
        if argv[1] == "13":
            raise AssertionError("modes listed before the geometry was validated")
        return real(*args, **kwargs)

    monkeypatch.setattr(itertools, "product", modes_only)
    assert run_cli(["torus-demo", "--fiber", "1x1"] + argv)[0] == 2
    assert message in capsys.readouterr().err


def test_cli_torus_demo_fiber_cap(capsys, monkeypatch):
    def no_enumeration(*args, **kwargs):
        raise AssertionError("modes listed before the fiber was checked")

    monkeypatch.setattr(itertools, "product", no_enumeration)
    argv = ["torus-demo", "--n", "1", "--band", "0", "--suite", "derham", "--fiber", "3000x1"]
    assert run_cli(argv)[0] == 2
    assert "rank 3000 * dim(A) 1 = 3000 exceeds the cap of 2048" in capsys.readouterr().err
