"""Tests of the benchmark's own arithmetic and of its output contract.

    python3 -m pytest bench
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_self_time_subtracts_direct_children_only():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds g [2, 3]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    parent = [-1, 0, 1, 0]
    own = metrics.self_times(start, end, parent)
    assert own.tolist() == [3.0, 2.0, 1.0, 4.0]
    assert own.sum() == 10.0  # self times of one tree add up to the root span


def test_self_time_of_leaf_is_its_duration():
    assert metrics.self_times([1.5], [2.0], [-1]).tolist() == [0.5]


def test_hit_ratio_counts_calls_without_a_miss_beneath():
    names = ["svals", "svals", "embed", "svd", "svals", "helper", "svd", "other", "svd"]
    parent = [-1, -1, 1, 1, -1, 4, 5, -1, 7]
    # call 0 has no child: a hit; call 1 has an svd child; call 4 has an svd
    # grandchild; the svd under "other" belongs to no svals call
    ratio, calls = metrics.hit_ratio(parent, names, "svals", "svd")
    assert calls == 3
    assert ratio == pytest.approx(1 / 3)
    assert metrics.has_descendant(parent, names, "svd").tolist() == [
        False, True, False, False, True, True, False, True, False]


def test_hit_ratio_without_calls_is_zero_with_zero_base():
    assert metrics.hit_ratio([-1], ["svd"], "svals", "svd") == (0.0, 0)


def test_ten_samples_beyond_p90_needs_92_distinct_samples():
    # p90 interpolates at rank 0.9 * (n - 1): 81 for n = 91, 81.9 for n = 92
    rng = np.random.default_rng(0)
    for n in (92, 100, 101, 150, 1000):
        samples = rng.permutation(n).astype(float)
        assert metrics.tail_count(samples, 90) >= 10
        assert metrics.enough_tail(samples, 90, 10)
    samples = rng.permutation(91).astype(float)
    assert metrics.tail_count(samples, 90) == 9
    assert not metrics.enough_tail(samples, 90, 10)
    assert not metrics.enough_tail([], 90, 10)


def test_ties_at_the_percentile_do_not_count_as_beyond():
    samples = [1.0] * 95 + [2.0] * 5
    assert metrics.tail_count(samples, 90) == 5


def test_percentile_interpolates_between_ranks():
    assert metrics.percentile([1, 2, 3, 4], 50) == 2.5
    assert metrics.percentile(list(range(11)), 90) == 9.0


def test_repeat_share_per_job_and_per_run():
    jobs = [["a", "a", "b"], ["a"]]
    assert metrics.repeat_share(jobs) == (0.25, 4)  # 3 distinct within jobs, 4 calls
    assert metrics.repeat_share([sum(jobs, [])]) == (0.5, 4)
    assert metrics.repeat_share([[], []]) == (0.0, 0)


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    assert metrics.quartile_spread(values) == pytest.approx((q3 - q1) / 14.5)


def test_tracer_fails_on_a_target_the_program_lacks(monkeypatch):
    import tracer

    class Layer:
        def kept(self):
            return 1

    monkeypatch.setattr(tracer, "targets", lambda: [
        (Layer, "kept", "layer.kept", None, None),
        (Layer, "renamed", "layer.renamed", None, None),
    ])
    original = Layer.__dict__["kept"]
    tr = tracer.Tracer()
    with pytest.raises(AttributeError):
        tr.install()
    tr.uninstall()
    assert Layer.__dict__["kept"] is original


def _run(cwd, *args):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170)


@pytest.mark.parametrize("trace,section", [("0", "end_to_end"), ("1", "per_layer")])
def test_short_run_reports_every_declared_metric(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run(ROOT, "--workload", "hodge-small", "--seed", "3", "--seconds", "0.2",
                "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    declared = {m["name"]: m["unit"] for m in spec[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    if trace == "1":
        assert result["metrics"]["trace.counter_mismatches"]["value"] == 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run(tmp_path, "--workload", "hodge-small", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert done.returncode != 0
    assert done.stdout == ""
