"""Closed-loop benchmark of the cstarhodge command-line tool.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, no concurrency: jobs run one after another by calling
`cstarhodge.cli.main(argv)` in this process with stdout captured, and every
report is checked against the verdict its input was built to give.  BLAS
runs on one thread and HODGE_CSTAR_THREADS stays unset.

Set-up imports the program in a fresh interpreter, builds the workload's
inputs from the seed under `.bench_work/`, then runs one warm-up job.  The
run then cycles through the job pool in whole passes until S seconds have
passed and at least ten latencies lie beyond the 90th percentile.

Every run times a fixed kernel before fixed job slots (speed.py) and divides its
loop timings by the run's slowness, and each set-up by the set-up slowness
taken beside it, so runs made while the shared machine was slow or fast
compare like with like; the raw timings go to stderr.

With --trace 0 the last stdout line reports the end-to-end metrics.  With
--trace 1, after one untraced pass, passes run untraced, traced, traced,
untraced in blocks of four; spans and counters are taken in the traced
passes (see tracer.py), and the last line reports the per-layer metrics,
the tracing overhead as the ratio of traced to untraced jobs per second
over the same jobs, and how many exact counters differed between traced
passes.  Every traced report must match the untraced report of the same
job byte for byte.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.environ.pop("HODGE_CSTAR_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import metrics  # noqa: E402
from speed import PROBES_PER_PASS, SpeedProbe, setup_slowness  # noqa: E402
from tracer import Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Set up at least MIN_SETUPS times, and until SETUP_PHASE_S have passed.
MIN_SETUPS = 5
SETUP_PHASE_S = 6.0
TAIL_PERCENTILE = 90
MIN_TAIL = 10

# Per-layer metrics of the traced run.  Times are span self time per traced
# job; calls and counters are per job over the first traced pass, whose jobs
# are the whole pool, so they repeat exactly for the same code and seed.
# metric -> span whose self time it reports
LAYER_TIMES = {
    "cli.parser_ms": "cli.parser",
    "cli.render_ms": "cli.render",
    "cli.self_ms": "cli.main",
    "serial.load_ms": "serial.load",
    "serial.dump_ms": "serial.dump",
    "hom.compose_ms": "hom.compose",
    "hom.norm_ms": "hom.norm",
    "hom.pinv_ms": "hom.pinv",
    "hom.embed_ms": "hom.embed",
    "kernel.svd_ms": "kernel.svd",
    "kernel.einsum_ms": "kernel.einsum",
    "chain.report_ms": "chain.report",
    "chain.chain_map_ms": "chain.chain_map",
    "chain.laplacian_ms": "chain.laplacian",
    "chain.validate_ms": "chain.validate",
    "symbol.scan_ms": "symbol.scan",
    "symbol.exactness_ms": "symbol.exactness",
    "torus.constant_ms": "torus.constant",
    "torus.embedding_ms": "torus.embedding",
    "torus.derham_ms": "torus.derham",
    "torus.regularity_ms": "torus.regularity",
}
# metric -> span whose calls it counts
LAYER_CALLS = {
    "hom.compose_calls": "hom.compose",
    "hom.norm_calls": "hom.norm",
    "hom.svals_calls": "hom.svals",
    "hom.pinv_calls": "hom.pinv",
    "kernel.svd_calls": "kernel.svd",
    "kernel.einsum_calls": "kernel.einsum",
    "chain.parametrix_calls": "chain.parametrix",
    "symbol.exactness_calls": "symbol.exactness",
    "torus.constant_calls": "torus.constant",
}
# counter kept by tracer.py -> unit
LAYER_COUNTERS = {
    "hom.init_calls": "count",
    "module.spec_eq_calls": "count",
    "hom.compose_work": "count",
    "kernel.svd_work": "count",
    "serial.load_bytes": "bytes",
    "serial.dump_bytes": "bytes",
}
# ratio -> (span, span beneath it that makes a call a miss)
HIT_RATIOS = {
    "hom.svals_hit_ratio": ("hom.svals", "kernel.svd"),
    "chain.parametrix_hit_ratio": ("chain.parametrix", "hom.pinv"),
}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    blas = {}
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def run_job(cli_main, job) -> tuple:
    """(exit code, stdout, error text) of one in-process CLI call."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(list(job.argv))
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else 2
    except Exception:  # the loop must go on; the job counts as failed
        return None, out.getvalue(), traceback.format_exc()
    return code, out.getvalue(), err.getvalue()


def set_up(cli_main, build, workdir: Path, seed: int) -> tuple:
    """(seconds, pool): import in a fresh interpreter, build inputs, one warm-up job."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import cstarhodge.cli"], env=env, check=True)
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    pool = build(workdir, seed)
    run_job(cli_main, pool[0])
    return time.perf_counter() - t0, pool


class Loop:
    """Closed loop over a job pool, with every verdict checked."""

    def __init__(self, cli_main, check, pool):
        self.cli_main = cli_main
        self.check = check
        self.pool = pool
        self.probe = SpeedProbe()
        self.probe_every = max(1, len(pool) // PROBES_PER_PASS)
        self.latencies: list = []
        self.attempted = 0
        self.failed = 0
        self.first_failure = None
        self.reference: dict = {}

    def one_pass(self, tracer=None, job_base: int = 0) -> float:
        """Seconds the pass took, without the speed probe's share."""
        t0 = time.perf_counter()
        probing = 0.0
        for slot, job in enumerate(self.pool):
            if slot % self.probe_every == 0:
                probing += self.probe.sample()
            root = tracer.begin_job(job_base + slot) if tracer else None
            t = time.perf_counter()
            code, out, err = run_job(self.cli_main, job)
            lat = time.perf_counter() - t
            if tracer:
                tracer.end_job(root)
            self.latencies.append(lat)
            self.attempted += 1
            why = err if code is None else self.check(job, code, out)
            if why is None and self.reference.setdefault(slot, out) != out:
                why = "report differs from the same job's report in another pass"
            if why is not None:
                self.failed += 1
                if self.first_failure is None:
                    self.first_failure = (job.argv, why)
        return time.perf_counter() - t0 - probing


def end_to_end(make_loop, workdir: Path, seed: int, seconds: float) -> tuple:
    setups, corrected = [], []
    began = time.perf_counter()
    before = setup_slowness()
    while len(setups) < MIN_SETUPS or time.perf_counter() - began < SETUP_PHASE_S:
        took, loop = make_loop(workdir, seed)
        after = setup_slowness()
        setups.append(took)
        corrected.append(took / ((before + after) / 2))
        before = after
    elapsed = 0.0
    while elapsed < seconds or not metrics.enough_tail(loop.latencies, TAIL_PERCENTILE, MIN_TAIL):
        elapsed += loop.one_pass()
    ms = [1e3 * x for x in loop.latencies]
    raw = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": len(ms) / elapsed,
        "latency_p50_ms": metrics.percentile(ms, 50),
        "latency_p90_ms": metrics.percentile(ms, TAIL_PERCENTILE),
    }
    slow = loop.probe.slowness()
    print(f"jobs {len(ms)} in {elapsed:.2f} s, slowness {slow:.4f} "
          f"({len(loop.probe.samples)} probes), {len(setups)} set-ups, "
          f"raw {json.dumps(raw)}", file=sys.stderr)
    values = {
        "setup_s": (statistics.median(corrected), "s"),
        "jobs_per_s": (raw["jobs_per_s"] * slow, "1/s"),
        "latency_p50_ms": (raw["latency_p50_ms"] / slow, "ms"),
        "latency_p90_ms": (raw["latency_p90_ms"] / slow, "ms"),
        "verified_frac": ((loop.attempted - loop.failed) / loop.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return loop, values


def pass_figures(tracer, arrays, jobs) -> dict:
    """Exact figures of one traced pass: span calls, counters, ratios."""
    names, parent, job, _ = arrays
    sel = np.flatnonzero(np.isin(job, jobs))
    lo, hi = int(sel[0]), int(sel[-1]) + 1  # one pass is one contiguous run of spans
    sub_names = names[lo:hi]
    sub_parent = np.where(parent[lo:hi] >= 0, parent[lo:hi] - lo, -1)
    figures = {}
    for metric, span in LAYER_CALLS.items():
        figures[metric] = int(np.count_nonzero(sub_names == span))
    counts = tracer.counts(jobs)
    for metric in LAYER_COUNTERS:
        figures[metric] = counts.get(metric, 0)
    for metric, (span, miss) in HIT_RATIOS.items():
        figures[metric] = metrics.hit_ratio(sub_parent, sub_names, span, miss)[0]
    keys = [tracer.job_counts[j].get("torus.constant_keys", []) for j in jobs]
    figures["torus.constant_repeat_share_job"] = metrics.repeat_share(keys)[0]
    figures["torus.constant_repeat_share_run"] = metrics.repeat_share([sum(keys, [])])[0]
    return figures


def per_layer(make_loop, workdir: Path, seed: int, seconds: float) -> tuple:
    _, loop = make_loop(workdir, seed)
    pool = loop.pool
    tr = Tracer()
    loop.one_pass()  # every job once before timing, so neither side pays first-run costs
    times = {False: 0.0, True: 0.0}
    traced_passes = []
    elapsed = 0.0
    passes = 1
    # untraced, traced, traced, untraced, ...: whole blocks of four cancel a linear drift
    while elapsed < seconds or passes % 4 != 1:
        traced = passes % 4 in (2, 3)
        base = passes * len(pool)
        if traced:
            tr.install()
            traced_passes.append(list(range(base, base + len(pool))))
        try:
            took = loop.one_pass(tr if traced else None, base)
        finally:
            tr.uninstall()
        times[traced] += took
        elapsed += took
        passes += 1

    arrays = tr.arrays()
    names, _, job, own = arrays
    n_traced = sum(len(p) for p in traced_passes)
    jobs_per_pass = len(pool)
    slow = loop.probe.slowness()
    values = {}
    for metric, span in LAYER_TIMES.items():
        values[metric] = (1e3 * float(own[names == span].sum()) / n_traced / slow, "ms")
    figures = [pass_figures(tr, arrays, p) for p in traced_passes]
    first = figures[0]
    for metric in LAYER_CALLS:
        values[metric] = (first[metric] / jobs_per_pass, "count")
    for metric, unit in LAYER_COUNTERS.items():
        values[metric] = (first[metric] / jobs_per_pass, unit)
    for metric in list(HIT_RATIOS) + ["torus.constant_repeat_share_job",
                                       "torus.constant_repeat_share_run"]:
        values[metric] = (first[metric], "share")
    mismatches = sorted({k for f in figures[1:] for k in f if f[k] != first[k]})
    if mismatches:
        print(f"counters that differ between traced passes: {mismatches}", file=sys.stderr)
    n_passes = len(traced_passes)
    traced_rate = n_traced / times[True]
    untraced_rate = n_passes * jobs_per_pass / times[False]
    values["trace.traced_jobs_per_s"] = (traced_rate * slow, "1/s")
    values["trace.untraced_jobs_per_s"] = (untraced_rate * slow, "1/s")
    values["trace.overhead_ratio"] = (traced_rate / untraced_rate, "share")
    values["trace.counter_mismatches"] = (len(mismatches), "count")
    values["trace.slowness"] = (slow, "share")
    print(f"traced jobs {n_traced}, spans {len(names)}", file=sys.stderr)
    return loop, values


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cstarhodge" / "__init__.py").is_file():
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from cstarhodge import cli

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    print(f"environment: {json.dumps(environment())}", file=sys.stderr)
    build = workloads.WORKLOADS[args.workload]

    def make_loop(workdir, seed):
        took, pool = set_up(cli.main, build, workdir, seed)
        return took, Loop(cli.main, workloads.check, pool)

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    measure = per_layer if args.trace else end_to_end
    try:
        loop, values = measure(make_loop, workdir, args.seed, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            work_root.rmdir()
    if loop.first_failure is not None:
        argv, why = loop.first_failure
        print(f"first failing job: {argv}: {why}", file=sys.stderr)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
