"""In-memory spans and counters around the program's layer boundaries.

The tracer lives in the benchmark, not in the program: `install` swaps the
public functions of each layer for wrappers that open a span (name, start,
end, parent span, job) and bump per-job counters, and `uninstall` puts the
originals back.  A function imported by name into another module (as
`cli.py` does with `from .torus import embedding_check`) is replaced in
every `cstarhodge` module that binds it, so the call is seen whichever
module makes it.  A target the program no longer has makes `install`
raise, so a renamed or moved function fails the traced run instead of
reading as a layer that costs nothing.

Spans are kept in flat arrays until the run ends; `arrays` and `counts`
hand them to the reduction in run.py.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

import metrics

JOB_SPAN = "cli.main"


def _compose_work(args, kwargs, result):
    """Sum over algebra blocks of m*j*k*nb^3 for self @ other, from module ranks."""
    if result is NotImplemented:
        return 0
    outer, inner = args[0], args[1]
    m, j, k = inner.source.rank, inner.target.rank, outer.target.rank
    return sum(m * j * k * nb**3 for nb in outer.algebra.block_sizes)


def _svd_work(args, kwargs, result):
    """m*n*min(m,n) for each matrix in the (possibly stacked) argument."""
    shape = np.shape(args[0])
    m, n = shape[-2:]
    return int(np.prod(shape[:-2], dtype=np.int64)) * m * n * min(m, n)


def _dump_bytes(args, kwargs, result):
    return len(result.encode("utf-8"))


def _load_bytes(args, kwargs, result):
    return os.path.getsize(args[0])


def _constant_key(args, kwargs, result):
    """Argument tuple of derivative_bound_constant, as a comparable string."""
    norm = tuple(tuple(a) if isinstance(a, (list, tuple, np.ndarray)) else a for a in args)
    return repr((norm, tuple(sorted(kwargs.items()))))


def targets():
    """(owner, attribute, span name or None, counter name or None, hook).

    A span name times the call; a counter name adds the hook's value (or 1
    without a hook) to that counter of the current job.  The constant's
    hook returns a key, collected per job for the repeat share.
    """
    import numpy.linalg

    from cstarhodge import chain, cli, serial, symbol, torus
    from cstarhodge.chain import ChainComplex
    from cstarhodge.hom import Morphism
    from cstarhodge.module import ModuleSpec

    return [
        (cli, "build_parser", "cli.parser", None, None),
        (argparse.ArgumentParser, "parse_args", "cli.parser", None, None),
        (cli, "render", "cli.render", None, None),
        (serial, "load_complex", "serial.load", None, None),
        (serial, "load_sample_set", "serial.load", None, None),
        (serial, "load_json", None, "serial.load_bytes", _load_bytes),
        (serial, "dump_json", "serial.dump", "serial.dump_bytes", _dump_bytes),
        (Morphism, "__init__", None, "hom.init_calls", None),
        (Morphism, "__matmul__", "hom.compose", "hom.compose_work", _compose_work),
        (Morphism, "norm", "hom.norm", None, None),
        (Morphism, "singular_values", "hom.svals", None, None),
        (Morphism, "pseudoinverse", "hom.pinv", None, None),
        (Morphism, "embed", "hom.embed", None, None),
        (numpy.linalg, "svd", "kernel.svd", "kernel.svd_work", _svd_work),
        (np, "einsum", "kernel.einsum", None, None),
        (ChainComplex, "cohomology_report", "chain.report", None, None),
        (chain, "verify_chain_map", "chain.chain_map", None, None),
        (ChainComplex, "laplacian", "chain.laplacian", None, None),
        (ChainComplex, "square_residuals", "chain.validate", None, None),
        (ChainComplex, "parametrix", "chain.parametrix", None, None),
        (symbol, "elliptic_scan", "symbol.scan", None, None),
        (symbol, "exactness_check", "symbol.exactness", None, None),
        (torus, "derivative_bound_constant", "torus.constant", "torus.constant_keys", _constant_key),
        (torus, "embedding_check", "torus.embedding", None, None),
        (torus, "harmonic_rank_report", "torus.derham", None, None),
        (torus, "regularity_report", "torus.regularity", None, None),
        (ModuleSpec, "__eq__", None, "module.spec_eq_calls", None),
    ]


class Tracer:
    """Spans and counters of one run, held in memory until it ends."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        self.name = array("i")
        self.parent = array("i")
        self.job = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list = []
        self._job = -1
        self._counts = None
        self.job_counts: dict = {}
        self._saved: list = []

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- spans and jobs ------------------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self._job)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int):
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_job(self, job: int) -> int:
        """Start job `job`; returns the index of its root span."""
        self._job = job
        self._counts = defaultdict(int)
        self.job_counts[job] = self._counts
        return self.open(self.name_id(JOB_SPAN))

    def end_job(self, root: int):
        self.close(root)
        self._job = -1
        self._counts = None

    def _count(self, counter, hook, args, kwargs, result):
        if self._counts is None:
            return
        value = hook(args, kwargs, result) if hook else 1
        if isinstance(value, str):
            self._counts.setdefault(counter, []).append(value)
        else:
            self._counts[counter] += value

    # -- wrapping --------------------------------------------------------------------

    def _wrap(self, fn, span, counter, hook):
        tracer = self
        if span is None:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                tracer._count(counter, hook, args, kwargs, result)
                return result
            return counted
        nid = self.name_id(span)

        def spanned(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(idx)
            if counter is not None:
                tracer._count(counter, hook, args, kwargs, result)
            return result
        return spanned

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for owner, attr, span, counter, hook in targets():
            original = getattr(owner, attr)
            wrapper = self._wrap(original, span, counter, hook)
            holders = [owner]
            if not isinstance(owner, type):
                holders += [
                    mod for key, mod in sys.modules.items()
                    if key.startswith("cstarhodge") and mod is not owner
                    and getattr(mod, attr, None) is original
                ]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved = []

    # -- reduction ---------------------------------------------------------------------

    def arrays(self):
        """(names, parent, job, self seconds) as numpy arrays, one entry per span."""
        ids = np.frombuffer(self.name, dtype=np.int32)
        names = np.asarray(self.names, dtype=object)[ids] if len(ids) else ids.astype(object)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        job = np.frombuffer(self.job, dtype=np.int32)
        own = metrics.self_times(self.start, self.end, parent)
        return names, parent, job, own

    def counts(self, jobs) -> dict:
        """Totals of the numeric counters over `jobs`."""
        out: dict = {}
        for j in jobs:
            for key, value in self.job_counts[j].items():
                if not isinstance(value, list):
                    out[key] = out.get(key, 0) + value
        return out
