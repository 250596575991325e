"""How fast the machine runs right now, from a fixed kernel timed between jobs.

The sandbox the benchmark runs in changes speed by a quarter or more over
minutes, as other tenants come and go, and no statistic inside one run can
remove a drift that outlasts it.  The probe times a fixed kernel, unrelated
to the program, before fixed slots of the job pool: PROBES_PER_PASS of them
spread evenly over a pass, or every slot of a smaller pool.  The slots do
not depend on time, so the jobs that start after the probe has cooled the
caches are the same ones in every run.  A kernel timed beside the jobs
follows them better than one timed in a burst between passes.  The median
of those times over the run, divided by REFERENCE_S (the kernel's usual
median on the machine recorded in RESULTS.json), is the run's slowness;
run.py divides the run's timings by it, so they read as on that machine at
its usual speed.  No change to the program reaches this
kernel, so a change to the program moves the timings exactly as it moves
the raw ones.

The kernel mixes what the jobs spend time on: interpreted Python, many
small numpy calls, a dense LAPACK SVD and a streaming reduction over an
array larger than the caches.  It creates no objects the garbage collector
tracks, so a program that grows the heap does not slow the probe, and it
calls the numpy functions it bound when it was made, so the tracer, which
replaces them later, neither sees nor slows it.

Set-up is timed before the loop, and its work is of another kind: starting
a fresh interpreter that imports numpy, then building Python objects and
writing them as JSON.  The kernel follows it poorly, so each set-up is
divided by its own set-up slowness instead, taken right before and right
after it: the geometric mean of the time a fresh interpreter takes to
import numpy alone, over SPAWN_REFERENCE_S, and of the time of a fixed JSON
round trip, over JSON_REFERENCE_S (both the usual times on the recorded
machine).  The program cannot reach these references either.
"""

from __future__ import annotations

import gc
import json
import math
import statistics
import subprocess
import sys
import time

import numpy as np

REFERENCE_S = 3.0e-3
PROBES_PER_PASS = 15
SPAWN_REFERENCE_S = 0.165
JSON_REFERENCE_S = 1.25e-3
JSON_SAMPLES = 5
_DOC = json.dumps({"maps": [
    {"shape": [2, 3], "data": [[1.5, -2.25, 3.0], [0.5, 1.0, 2.0]], "tag": f"x{i}"}
    for i in range(150)
]})


class SpeedProbe:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((3, 3, 2, 2)) + 1j * rng.standard_normal((3, 3, 2, 2))
        self._dense = rng.standard_normal((64, 64)) + 1j * rng.standard_normal((64, 64))
        self._stream = rng.standard_normal(1 << 20)
        self._einsum = np.einsum
        self._svd = np.linalg.svd
        self.samples: list = []

    def kernel(self):
        acc = 0.0
        for i in range(3000):
            acc += i * 0.5
        for _ in range(60):
            self._einsum("ijab,jkbc->ikac", self._small, self._small)
        self._svd(self._dense, compute_uv=False)
        return acc + float(self._stream.sum())

    def sample(self) -> float:
        """Time the kernel once; returns the seconds spent.

        The kernel runs once untimed first: the job before it has evicted
        its data and code from the caches, and how much depends on the job.
        """
        t0 = time.perf_counter()
        self.kernel()
        t = time.perf_counter()
        self.kernel()
        end = time.perf_counter()
        self.samples.append(end - t)
        return end - t0

    def slowness(self) -> float:
        """Median kernel time of the run over the reference time; 1 at usual speed."""
        return statistics.median(self.samples) / REFERENCE_S


def _json_round_trip():
    """Parse, walk and write a fixed document, with the collector off so the
    program's heap cannot slow it."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        doc = json.loads(_DOC)
        total = sum(sum(map(sum, m["data"])) + len(m["tag"]) for m in doc["maps"])
        json.dumps(doc)
    finally:
        if was_enabled:
            gc.enable()
    return total


def setup_slowness() -> float:
    """The machine's slowness at set-up work right now; 1 at usual speed."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    spawn = (time.perf_counter() - t0) / SPAWN_REFERENCE_S
    _json_round_trip()
    times = []
    for _ in range(JSON_SAMPLES):
        t = time.perf_counter()
        _json_round_trip()
        times.append(time.perf_counter() - t)
    return math.sqrt(spawn * statistics.median(times) / JSON_REFERENCE_S)
