"""Arithmetic of the benchmark: percentiles, span self times, ratios, spreads.

Pure functions over plain sequences and numpy arrays, so the tests can check
them on hand-built inputs without running the program.
"""

from __future__ import annotations

import statistics

import numpy as np


def percentile(samples, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between ranks."""
    if not len(samples):
        raise ValueError("percentile of no samples")
    return float(np.percentile(np.asarray(samples, dtype=float), q))


def tail_count(samples, q: float) -> int:
    """Number of samples strictly above the q-th percentile."""
    cut = percentile(samples, q)
    return int(np.count_nonzero(np.asarray(samples, dtype=float) > cut))


def enough_tail(samples, q: float, minimum: int = 10) -> bool:
    """True when at least `minimum` samples lie beyond the q-th percentile."""
    return len(samples) > 0 and tail_count(samples, q) >= minimum


def self_times(start, end, parent) -> np.ndarray:
    """Span duration minus the time its direct children cover.

    Spans come from one thread, so siblings never overlap and a child lies
    inside its parent; grandchildren are already inside their own parent,
    so subtracting direct children alone never counts an interval twice.
    `parent` holds the index of each span's parent, or -1 for a root.
    """
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    parent = np.asarray(parent, dtype=np.int64)
    dur = end - start
    covered = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(covered, parent[has_parent], dur[has_parent])
    return dur - covered


def has_descendant(parent, names, target) -> np.ndarray:
    """For every span, whether some span beneath it is named `target`.

    A child always starts after its parent, so it has the larger index and a
    single pass from the last span to the first settles every ancestor.
    """
    parent = [int(p) for p in parent]
    names = list(names)
    below = [False] * len(parent)
    for i in range(len(parent) - 1, -1, -1):
        p = parent[i]
        if p >= 0 and (below[i] or names[i] == target):
            below[p] = True
    return np.asarray(below, dtype=bool)


def hit_ratio(parent, names, span, miss_child) -> tuple:
    """(share of `span` calls with no `miss_child` span beneath, calls)."""
    names = np.asarray(names)
    calls = int(np.count_nonzero(names == span))
    if calls == 0:
        return 0.0, 0
    below = has_descendant(parent, names, miss_child)
    hits = int(np.count_nonzero((names == span) & ~below))
    return hits / calls, calls


def repeat_share(groups) -> tuple:
    """(1 - distinct keys / calls, calls), distinct counted within each group.

    `groups` is a list of key lists; one group per job gives the per-job
    share, a single group with every key gives the per-run share.
    """
    calls = sum(len(g) for g in groups)
    if calls == 0:
        return 0.0, 0
    distinct = sum(len(set(g)) for g in groups)
    return 1.0 - distinct / calls, calls


def quartile_spread(values) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
