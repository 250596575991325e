"""Verdicts that FAIL keep the exact operator norm as their value.

A residual passes as its Frobenius bound only where that bound is below the
tolerance; a failing residual takes the exact path, so its value is the
composition's operator norm bit for bit, as it was when every residual was
an SVD.  The inputs are the twisted circle over M_2 (modes q in {-1, 0, 1},
one differential with the blocks 2 pi i (q + theta), theta = diag(0, eps)),
whose harmonic and cohomology dimensions are 2 in both degrees for every
0 < eps < 1/2.  With ranks decided on D and g, p built from D's singular
vectors, its well-conditioned rows pass; it still fails identities of
`hodge` through roundoff at small eps or at an extreme scale.  Last come
near-threshold D D = 0 and projection failures, whose error messages are
pinned byte for byte (as the all-SVD code printed them).
"""

import contextlib
import io
import json

import numpy as np
import pytest

from cstarhodge import cli, serial
from cstarhodge.algebra import AlgebraElement, AlgebraSpec
from cstarhodge.chain import ChainComplex, random_complex, random_unitary_morphism
from cstarhodge.errors import NotAComplex, ProjectionLeak
from cstarhodge.hom import Morphism, identity_morphism
from cstarhodge.module import ModuleSpec
from cstarhodge.symbol import SampleSet, de_rham_symbol_sample
from cstarhodge.util import rng_for
from test_hom import _projective
from test_residual_stacks import assert_gap_brackets_the_spectrum, oracle_chain_map, oracle_residuals


def twisted_circle(eps: float, scale: float, seed) -> ChainComplex:
    """A^3 -> A^3 over M_2 with the twisted circle's blocks, in a random unitary frame.

    seed None keeps the identity frame, where D is block diagonal.
    """
    alg = AlgebraSpec((2,))
    mod = ModuleSpec(alg, 3)
    rows = [[alg.zero()] * 3 for _ in range(3)]
    for i, q in enumerate((-1, 0, 1)):
        rows[i][i] = AlgebraElement(alg, [2j * np.pi * scale * (q * np.eye(2) + np.diag([0.0, eps]))])
    d = Morphism.from_entries(mod, mod, rows)
    if seed is None:
        return ChainComplex([mod, mod], [d])
    rng = rng_for(16, "twisted-circle", seed)
    u0, u1 = random_unitary_morphism(mod, rng), random_unitary_morphism(mod, rng)
    return ChainComplex([mod, mod], [u1 @ d @ u0.adjoint()])


def _hodge(path) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["hodge", str(path), "--format", "json"])
    return code, json.loads(out.getvalue())


def _oracles(cx) -> dict:
    """{section title: {check name: the composition's operator norm}}."""
    family = cx.parametrix_family()
    sections = {
        f"degree {par.degree}": {cli.RESIDUAL_NAMES[k]: v for k, v in oracle_residuals(par).items()}
        for par in family
    }
    chain_map = {}
    for entry in oracle_chain_map(cx, family, 1e-8)["degrees"]:
        i = entry["degree"]
        for key, value in entry.items():
            if key in cli.RESIDUAL_NAMES:
                chain_map[cli.RESIDUAL_NAMES[key].replace("[i]", f"[{i}]").replace("[i+1]", f"[{i + 1}]")] = value
    sections["chain map"] = chain_map
    return sections


# (eps, scale, seed) and the checks `hodge` fails on them, in report order;
# each row keeps the id it had in the five-row table whose other rows now
# pass (they are in TWISTED_PASSES)
TWISTED_FAILURES = [
    pytest.param((1e-3, 100.0, 0), ["D[0] lap[0] = lap[1] D[0]"], id="case2-failing2"),
    pytest.param(
        (1e-6, 1.0, 0),
        ["g p = 0", "g lap + p = 1", "lap g + p = 1"] * 2 + ["D[0] g[0] = g[1] D[0]"],
        id="case4-failing4",
    ),
]


@pytest.mark.parametrize("case, failing", TWISTED_FAILURES)
def test_failing_residuals_are_exact_operator_norms(case, failing, tmp_path):
    cx = twisted_circle(*case)
    path = tmp_path / "twisted.json"
    serial.save_complex(str(path), cx)
    code, report = _hodge(path)
    assert code == 1
    oracles = _oracles(cx)
    failed = []
    for section in report["sections"]:
        for check in section["checks"]:
            if check["passed"]:
                continue
            failed.append(check["name"])
            if check["kind"] == "le":
                assert check["norm"] == "operator norm"
                assert check["value"].hex() == oracles[section["title"]][check["name"]].hex()
    assert failed == failing


# the twisted circle's rows that `hodge` passes: every degree has harmonic
# and cohomology dimension 2; seed None is the identity frame
TWISTED_PASSES = [
    (1e-1, 1e-3, 0),
    (1e-3, 1.0, 0),
    (1e-3, 1.0, 1),
    (1e-3, 1.0, 3),
    (1e-3, 1.0, 4),
    (1e-6, 1.0, None),
]


@pytest.mark.parametrize("case", TWISTED_PASSES)
def test_well_posed_twisted_circles_pass(case, tmp_path):
    path = tmp_path / "twisted.json"
    serial.save_complex(str(path), twisted_circle(*case))
    code, report = _hodge(path)
    assert code == 0 and report["passed"]
    assert report["harmonic_dims"] == [2, 2]
    assert [s["info"]["cohomology_dim"] for s in report["sections"][:2]] == [2, 2]


@pytest.mark.parametrize("seed", [3, 4])
def test_thin_twisted_circle_has_the_right_dimensions(seed, tmp_path):
    # at eps = 1e-7 the Laplacian's smallest nonzero eigenvalue sits below
    # its squared cut, where a rank decision on L read dimension 4; the
    # decision on D keeps it, the residuals L p = 0 and g L + p = 1 still
    # leave a gap in L's spectrum that certifies nullity 2, and only the g
    # residuals fail (their verdict waits for residuals scaled by their
    # factors' norms)
    path = tmp_path / "twisted.json"
    serial.save_complex(str(path), twisted_circle(1e-7, 1.0, seed))
    code, report = _hodge(path)
    assert code == 1
    assert report["harmonic_dims"] == [2, 2]
    for section in report["sections"][:2]:
        assert section["info"]["cohomology_dim"] == 2
        (dims,) = [c for c in section["checks"] if c["name"] == "harmonic dim = cohomology dim"]
        assert dims["passed"] and dims["value"] == 2
        upper, lower = section["info"]["laplacian_gap"]
        assert upper < lower


@pytest.mark.parametrize("case, certified", [((1e-9, 1.0, None), True), ((1e-8, 1.0, 3), False), ((1e-9, 1.0, 3), False)])
def test_laplacian_nullity_is_certified_only_across_a_gap(case, certified):
    # the dimension check is not the rank arithmetic read twice: in a random
    # frame at eps = 1e-8 and below, L's eigenvalue 4 pi^2 eps^2 sits under
    # the roundoff of L p, no gap separates it, and the check FAILs with the
    # same harmonic and cohomology dimension 2; the identity frame, whose
    # L p is exact, still certifies it at eps = 1e-9
    cx = twisted_circle(*case)
    for i in range(2):
        rep = assert_gap_brackets_the_spectrum(cx, i)
        assert rep.harmonic_dim == rep.cohomology_dim == 2
        assert rep.dims_match is certified


@pytest.mark.parametrize("case, certified", [((1e-6, 1.0, None), True), ((1e-7, 1.0, 3), True), ((1e-8, 1.0, 3), False)])
def test_harmonic_basis_rests_on_the_rank_decisions_of_p(case, certified):
    # at eps = 1e-6 L's eigenvalue (2 pi eps)^2 lies below cutoff times its
    # largest, so a cut on L's own spectrum read 4 harmonic vectors in
    # degree 0, two of them moved by D by 2 pi eps; the basis is p's range
    # and its nullity is cohomology_report's, None where no gap certifies it
    cx = twisted_circle(*case)
    eps = np.finfo(float).eps
    for i in range(2):
        basis = cx.harmonic_basis(i)
        rep = cx.kernel_intersection_check(i)
        assert len(basis) == cx.cohomology_report(i).harmonic_dim == rep["intersection_nullity"] == 2
        assert rep["laplacian_nullity"] == (2 if certified else None)
        assert rep["dims_match"] is certified
        bound = 16 * eps * cx.differential(0).norm()
        assert rep["differential_on_harmonics"] <= bound and rep["adjoint_on_harmonics"] <= bound


def _run_stderr(argv) -> tuple:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def _almost_complex(delta: float) -> ChainComplex:
    """A random complex over (1, 2) whose D_1 is off by delta times a Gaussian map."""
    alg = AlgebraSpec((1, 2))
    cx, plan = random_complex(rng_for(16, "almost-complex", 16), algebra=alg, max_modules=3)
    assert plan["differential_ranks"] == [2, 1]
    rng = np.random.default_rng(16)
    d1 = cx.diffs[1]
    noise = [rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape) for r in d1.mats]
    bent = Morphism(d1.source, d1.target, [r + delta * n for r, n in zip(d1.mats, noise)])
    return ChainComplex(cx.modules, [cx.diffs[0], bent], tol=1.0)


def _leaking(delta: float) -> ChainComplex:
    """A map into a projective module of (1, 2) that leaks by about delta."""
    alg = AlgebraSpec((1, 2))
    rng = rng_for(16, "leaking", 0)
    target = _projective(alg, 2, rng)
    source = ModuleSpec(alg, 2)
    good = identity_morphism(target).mats
    leak = [p + delta * rng.standard_normal(p.shape) for p in good]
    return ChainComplex([source, target], [Morphism(source, target, leak)])


NEAR_THRESHOLD = [
    (_almost_complex, 1e-8, "error: complex: differentials 1 after 0 compose to norm 4.095e-08, not a complex\n"),
    (_leaking, 1e-8, "error: differentials[0]: map leaks outside its modules' projections: R = P_source R P_target off by 2.327e-08 relative\n"),
]


@pytest.mark.parametrize("build, delta, message", NEAR_THRESHOLD, ids=["not-a-complex", "projection-leak"])
def test_near_threshold_refusals_keep_their_messages(build, delta, message, tmp_path):
    path = tmp_path / "bad.json"
    serial.save_complex(str(path), build(delta))
    for command in ("check-complex", "hodge"):
        assert _run_stderr([command, str(path)]) == (2, message)
    # the same input passes at a tolerance above its residual
    assert _run_stderr(["check-complex", str(path), "--tol", "1e-7"])[0] == 0


def _de_rham_set(fiber):
    xis = np.random.default_rng(16).standard_normal((4, 2))
    return SampleSet.of([de_rham_symbol_sample(2, fiber, xi, tag=f"s{j}") for j, xi in enumerate(xis)])


def test_sample_set_refusals_keep_their_messages():
    fiber = ModuleSpec(AlgebraSpec((1, 2)), 1)
    good = _de_rham_set(fiber)
    rng = np.random.default_rng(17)
    bent = [[r.copy() for r in st] for st in good.maps]
    bent[1][1][2] += 1e-8 * rng.standard_normal(bent[1][1][2].shape)
    with pytest.raises(NotAComplex) as err:
        SampleSet(good.tags, good.fibers, bent)
    assert (str(err.value), err.value.index) == ("differentials 1 after 0 compose to norm 1.942e-07, not a complex", 2)
    proj = _projective(AlgebraSpec((1, 2)), 1, rng_for(16, "leaking", 1))
    good = _de_rham_set(proj)
    leaky = [[r.copy() for r in st] for st in good.maps]
    leaky[0][1][3] += 1e-8 * rng.standard_normal(leaky[0][1][3].shape)
    with pytest.raises(ProjectionLeak) as err:
        SampleSet(good.tags, good.fibers, leaky)
    assert (str(err.value), err.value.index, err.value.degree) == (
        "map leaks outside its modules' projections: R = P_source R P_target off by 7.247e-09 relative",
        3,
        0,
    )
