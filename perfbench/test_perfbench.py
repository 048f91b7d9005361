"""Tests of the benchmark itself (not collected by the repository suite).

Run from the repository root::

    python3 -m pytest perfbench -q

Covers a tiny-size run of every workload in both modes, the nested
self-time arithmetic of the layer tracer, that every oracle and guard
rejects a deliberately wrong result, and the host-speed rescaling.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from layers import OTHER, WORKER_BUSY, LayerTracer  # noqa: E402


def bench_cli(*args, cwd=HERE.parent, env=None):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
        env=dict(os.environ, **(env or {})),
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_tiny_run_reports_every_metric(name, trace):
    # Tiny inputs sit below the pool's size floor: force the pool so the
    # shuffle-sweep guard still sees it used.
    proc = bench_cli(
        "--workload", name, "--seed", "5", "--seconds", "0.2",
        "--trace", str(trace), "--size", "tiny",
        env={"REPRO_POOL_FORCE": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1 + run.MIN_JOBS
    names = layers.LAYER_METRICS if trace else run.END_TO_END
    assert set(result["metrics"]) == set(names)
    for metric, reading in result["metrics"].items():
        assert reading["unit"] == names[metric]
        assert isinstance(reading["value"], float)


def test_bench_json_lists_what_the_benchmark_prints():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_without_sources_the_benchmark_exits_nonzero(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench_cli("--workload", "kmeans-run", "--seed", "1",
                     "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- self-time arithmetic ---------------------------------------------------


@pytest.fixture
def clock(monkeypatch):
    """A perf_counter the test advances by hand."""
    now = [0.0]
    monkeypatch.setattr(layers.time, "perf_counter", lambda: now[0])
    return now


def test_nested_self_times_subtract_children(clock, tmp_path):
    tracer = LayerTracer(tmp_path)

    def advance(dt):
        clock[0] += dt

    leaf = tracer._timed(lambda: advance(2.0), "leaf.self_s",
                         [("leaf.calls", layers._one)], None)

    def mid_body(depth):
        advance(1.0)
        if depth:
            mid(depth - 1)  # same layer: folds into the outer frame
        leaf()
        advance(0.5)
        return [0] * 3

    mid = tracer._timed(mid_body, "mid.self_s",
                        [("mid.calls", layers._one)], "mid.inclusive_s")
    with tracer.root() as root:
        advance(0.25)
        assert mid(1) == [0, 0, 0]
        advance(0.25)
    totals = dict(tracer.totals)
    assert root.elapsed == pytest.approx(7.5)
    assert totals["leaf.self_s"] == pytest.approx(4.0)
    assert totals["mid.self_s"] == pytest.approx(3.0)
    assert totals[OTHER] == pytest.approx(0.5)
    assert totals["mid.inclusive_s"] == pytest.approx(7.0)
    # Counts at the outermost call of a layer only.
    assert totals["mid.calls"] == 1 and totals["leaf.calls"] == 2
    # Outside a job the wrappers only pass calls through.
    mid(0)
    assert dict(tracer.totals) == totals


def test_self_times_sum_to_job_plus_worker_time(clock, tmp_path):
    tracer = LayerTracer(tmp_path)
    (tmp_path / "worker-1-1.json").write_text(json.dumps(
        {"engine.executor.self_s": 1.5, OTHER: 0.5, WORKER_BUSY: 2.0}
    ))

    def job():
        clock[0] += 3.0
        return "done"

    assert tracer.trace_job(job) == ("done", 3.0)
    assert not list(tmp_path.iterdir())  # worker files merged and removed
    ok, total, expected = tracer.check_sum()
    assert ok and total == pytest.approx(5.0) and expected == pytest.approx(5.0)
    tracer.totals["engine.executor.self_s"] += 1.0  # a double-counted second
    assert not tracer.check_sum()[0]
    per_job = tracer.per_job()
    assert set(per_job) == set(layers.LAYER_METRICS) - {"trace.overhead_ratio"}


def test_install_patches_every_reference_and_uninstall_restores(tmp_path):
    from repro.common import sizing
    from repro.engine import executor

    original = sizing.estimate_size
    tracer = LayerTracer(tmp_path)
    tracer.install()
    try:
        assert sizing.estimate_size is not original
        assert executor.estimate_size is sizing.estimate_size
    finally:
        tracer.uninstall()
    assert sizing.estimate_size is original and executor.estimate_size is original


# -- oracles and guards -----------------------------------------------------


def tiny_job(cls, tmp_path, jobs=None):
    bench = cls(seed=3, size="tiny")
    state = bench.setup(tmp_path)
    out = bench.job(state, jobs)
    assert bench.check(state, out) == []
    return bench, state, out


def test_wordcount_oracle_rejects_wrong_counts(tmp_path):
    bench, state, out = tiny_job(workloads.Sweep, tmp_path)
    wrong = copy.deepcopy(out)
    word, count = wrong["outcome"].result.value[0]
    wrong["outcome"].result.value[0] = (word, count + 1)
    assert bench.check(state, wrong)
    wrong = copy.deepcopy(out)
    wrong["outcome"].result.details["distinct"] += 1
    assert bench.check(state, wrong)


def test_shuffle_sweep_guard_rejects_a_serial_sweep(tmp_path):
    bench, state, out = tiny_job(workloads.ShuffleSweep, tmp_path, jobs=1)
    assert out["dispatch"] != "pool"
    out["jobs"] = 2
    assert any("not 'pool'" in p for p in bench.check(state, out))


def test_sweep_fingerprint_covers_db_and_config(tmp_path):
    bench, state, out = tiny_job(workloads.Sweep, tmp_path)
    reference = bench.fingerprint(state, out)
    assert bench.fingerprint(state, out) == reference
    state["runner"].db.add_run(out["outcome"].record)
    assert bench.fingerprint(state, out) != reference
    assert bench.fingerprint(state, dict(out, config="{}")) != reference


def test_kmeans_guards_reject_empty_ledger_and_log(tmp_path):
    bench, state, out = tiny_job(workloads.KMeansRun, tmp_path)
    state["log"].write_text("")
    assert any("event log" in p for p in bench.check(state, out))
    state["ledger"].write_text("")
    Path(str(state["ledger"]) + ".index.json").unlink(missing_ok=True)
    assert any("ledger" in p for p in bench.check(state, out))


def test_kmeans_fingerprint_covers_centers(tmp_path):
    bench, state, out = tiny_job(workloads.KMeansRun, tmp_path)
    reference = bench.fingerprint(state, out)
    out["outcome"].result.value[0, 0] += 1e-9
    assert bench.fingerprint(state, out) != reference


def test_sql_oracle_and_guard_reject_wrong_results(tmp_path):
    bench, state, out = tiny_job(workloads.SQLRepeat, tmp_path)
    wrong = copy.deepcopy(out)
    region, revenue = wrong["queries"][0]["rows"][0]
    wrong["queries"][0]["rows"][0] = (region, revenue * (1 + 1e-6))
    assert any("sqlite3" in p for p in bench.check(state, wrong))
    for field in ("hits", "pruned"):
        wrong = copy.deepcopy(out)
        wrong["queries"][2][field] = 0
        assert any("warm query 2" in p for p in bench.check(state, wrong))


class _Flaky:
    """A workload whose third job's outputs differ from the first's."""

    reference_jobs = None

    def __init__(self):
        self.calls = 0

    def setup(self, workdir):
        return {}

    def job(self, state, jobs):
        self.calls += 1
        return {"value": 1 if self.calls != 3 else 2}

    def check(self, state, out):
        return []

    def fingerprint(self, state, out):
        return out["value"]


def test_outputs_that_drift_from_the_reference_fail_the_job(tmp_path):
    bench = run.Bench(_Flaky(), tmp_path)
    bench.loop(seconds=0, trace=False)
    assert bench.attempted == 1 + run.MIN_JOBS
    assert bench.failed == 1 and len(bench.job_s) == run.MIN_JOBS - 1


# -- host-speed rescaling ---------------------------------------------------


def test_scaled_divides_out_the_probe_slowdown():
    ref = speed.PROBE_REF_S
    assert speed.scaled(2.0, [ref, ref]) == pytest.approx(2.0)
    # Probes twice as slow as the reference: the host ran at half speed.
    assert speed.scaled(2.0, [2 * ref, 2 * ref]) == pytest.approx(1.0)


def test_sampler_probes_during_a_block_and_restores_the_signal():
    def mine(signum, frame):
        pass

    previous = signal.signal(signal.SIGALRM, mine)
    try:
        sampler = speed.SpeedSampler()
        with sampler.measure() as samples:
            end = time.perf_counter() + 4 * speed.SAMPLE_INTERVAL_S
            while time.perf_counter() < end:
                pass
        assert len(samples) >= 2 and all(s > 0 for s in samples)
        with sampler.measure() as short:
            pass
        assert len(short) == 1  # a block shorter than one interval
        assert signal.getsignal(signal.SIGALRM) is mine
        assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert len(sampler.burst(3)) == 3
    finally:
        signal.signal(signal.SIGALRM, previous)
