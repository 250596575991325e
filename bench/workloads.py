"""The four workloads: inputs built from a seed, job argv, expected verdicts.

Every workload is a fixed pool of jobs that run.py cycles through whole.
A job's cost is set by the shapes in its slot of the pool, which are the
same for every seed; the seed changes only the numbers inside them (unitary
frames, covectors, random sections).  Runs with different seeds therefore
measure the same work, and the verdict each job must reach is known from
how its input was built.

Pool sizes are chosen so that the median and the 90th percentile of the
job latencies fall inside a group of equally expensive jobs, never on the
edge between two groups, where a single job more or less of one kind would
move them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from cstarhodge import serial
from cstarhodge.algebra import AlgebraSpec
from cstarhodge.chain import ChainComplex, random_complex, random_unitary_morphism
from cstarhodge.module import ModuleSpec
from cstarhodge.symbol import de_rham_symbol_sample

# Keys the shapes of the hodge pools; the workload seed never reaches them.
SHAPE_KEY = 20130305
# Second word of every generator key, one per pool, so no two pools share a stream.
SMALL_KEY, SCALED_KEY, ELLIPTICITY_KEY = 1, 2, 3


@dataclass
class Job:
    argv: list
    expect: dict = field(default_factory=dict)


def _parse_fiber(spec: str) -> ModuleSpec:
    rank, _, blocks = spec.partition("x")
    return ModuleSpec(AlgebraSpec(tuple(int(b) for b in blocks.split(","))), int(rank))


def _hodge_pool(workdir: Path, seed: int, key: int, slots: int, algebras, max_rank: int) -> list:
    """Complexes from random_complex with per-slot shapes, in seeded frames.

    Slot i draws its complex from a generator keyed by (SHAPE_KEY, key, i),
    so its module ranks and differential ranks never depend on the seed.
    The seed picks unitary frames U_k, and D_k becomes U_{k+1} D_k U_k*,
    which keeps D D = 0 and every planted harmonic rank.
    """
    jobs = []
    for slot in range(slots):
        algebra = AlgebraSpec(algebras[slot % len(algebras)]) if algebras else None
        shape_rng = np.random.default_rng([SHAPE_KEY, key, slot])
        cx, plan = random_complex(shape_rng, algebra=algebra, max_rank=max_rank)
        frame_rng = np.random.default_rng([seed, key, slot])
        frames = [random_unitary_morphism(m, frame_rng) for m in cx.modules]
        diffs = [frames[k + 1] @ d @ frames[k].adjoint() for k, d in enumerate(cx.diffs)]
        cx = ChainComplex(cx.modules, diffs)
        path = workdir / f"complex-{key}-{slot:02d}.json"
        serial.save_complex(str(path), cx)
        dim = cx.algebra.dim
        jobs.append(Job(
            ["hodge", str(path), "--format", "json"],
            {"kind": "hodge", "harmonic_dims": [r * dim for r in plan["harmonic_free_ranks"]]},
        ))
    return jobs


def hodge_small(workdir: Path, seed: int) -> list:
    # 45 slots: the median and p90 land mid-slot (45 * 0.5 and 45 * 0.9 end in .5)
    return _hodge_pool(workdir, seed, SMALL_KEY, 45, None, 4)


def hodge_scaled(workdir: Path, seed: int) -> list:
    return _hodge_pool(workdir, seed, SCALED_KEY, 15, [(2,), (1, 2), (3,)], 24)


# (n, band, fiber); the (2, 1) geometry runs twice per cycle so that the
# median falls inside its group rather than between the two middle ones.
TORUS_CYCLE = [(1, 4, "2x2,1"), (2, 1, "1x2,1"), (2, 1, "1x2,1"), (2, 2, "1x2"), (3, 1, "1x2")]


def torus_demo(workdir: Path, seed: int) -> list:
    jobs = []
    for slot, (n, band, fiber) in enumerate(TORUS_CYCLE):
        rank = _parse_fiber(fiber).rank
        argv = [
            "torus-demo", "--n", str(n), "--band", str(band), "--fiber", fiber,
            "--suite", "all", "--sections", "10", "--seed", str(seed * len(TORUS_CYCLE) + slot),
            "--format", "json",
        ]
        ranks = [math.comb(n, k) * rank for k in range(n + 1)]
        jobs.append(Job(argv, {"kind": "torus", "harmonic_free_ranks": ranks}))
    return jobs


# (n, fiber) per file, in turn; one file in four has a zero covector planted.
ELLIPTICITY_FIBERS = [(3, "1x2"), (4, "1x2"), (3, "2x2,1")]
ELLIPTICITY_FILES = 12
COVECTORS = 64


def ellipticity(workdir: Path, seed: int) -> list:
    jobs = []
    for slot in range(ELLIPTICITY_FILES):
        n, fiber_spec = ELLIPTICITY_FIBERS[slot % len(ELLIPTICITY_FIBERS)]
        fiber = _parse_fiber(fiber_spec)
        rng = np.random.default_rng([seed, ELLIPTICITY_KEY, slot])
        covectors = rng.standard_normal((COVECTORS, n))
        planted = slot % 4 == 0
        if planted:
            covectors[int(rng.integers(COVECTORS))] = 0.0
        samples = [
            de_rham_symbol_sample(n, fiber, xi, tag=f"xi{j:02d}") for j, xi in enumerate(covectors)
        ]
        path = workdir / f"samples-{slot:02d}.json"
        serial.save_sample_set(str(path), samples)
        verdict = "not-elliptic" if planted else "elliptic"
        jobs.append(Job(
            ["ellipticity", str(path), "--format", "json"],
            {"kind": "ellipticity", "verdict": verdict, "code": 1 if planted else 0},
        ))
    return jobs


WORKLOADS = {
    "hodge-small": hodge_small,
    "hodge-scaled": hodge_scaled,
    "torus-demo": torus_demo,
    "ellipticity": ellipticity,
}


def check(job: Job, code: int, stdout: str):
    """None when the job's exit code and report match its construction, else why not."""
    expect = job.expect
    want_code = expect.get("code", 0)
    if code != want_code:
        return f"exit code {code}, expected {want_code}"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "stdout is not a JSON report"
    kind = expect["kind"]
    if kind == "hodge":
        got = report.get("harmonic_dims")
        if got != expect["harmonic_dims"]:
            return f"harmonic_dims {got}, expected {expect['harmonic_dims']}"
    elif kind == "torus":
        got = [s["info"].get("harmonic_free_ranks") for s in report.get("sections", [])
               if "harmonic_free_ranks" in s.get("info", {})]
        if got != [expect["harmonic_free_ranks"]]:
            return f"harmonic_free_ranks {got}, expected {expect['harmonic_free_ranks']}"
    elif kind == "ellipticity":
        if report.get("verdict") != expect["verdict"]:
            return f"verdict {report.get('verdict')!r}, expected {expect['verdict']!r}"
    return None
