"""End-to-end oracle for partition sizing.

``estimate_partition_size`` sums record sizes on a columnar exact-integer
path; the scalar left fold of ``estimate_size`` is its reference. Every
built-in workload runs once on each and must produce the same simulated
clock, the same per-stage input and shuffle bytes, and the same
CHOPPER workload DB.
"""

import pytest

from repro.chopper import ChopperRunner
from repro.chopper.workload_db import WorkloadDB
from repro.cli import WORKLOADS
from repro.cluster import paper_cluster
from repro.common.sizing import estimate_size
from repro.engine import AnalyticsContext, EngineConf
from repro.engine import rdd as rdd_module

SCALE = 0.02


def scalar_fold(records):
    scalar_fold.calls += 1
    return float(sum(estimate_size(r) for r in records))


def fingerprint(workload_cls, tmp_path):
    workload = workload_cls(physical_records=300)
    ctx = AnalyticsContext(paper_cluster(), EngineConf(default_parallelism=12))
    workload.run(ctx, scale=SCALE)
    stages = [
        (s.signature, s.input_bytes, s.shuffle_read_bytes, s.shuffle_write_bytes)
        for s in ctx.stage_stats
    ]
    runner = ChopperRunner(
        workload, base_conf=EngineConf(default_parallelism=8), db=WorkloadDB()
    )
    runner.profile(p_grid=[4, 8], kinds=["hash", "range"], scales=[SCALE], jobs=1)
    path = tmp_path / "db.json"
    runner.db.save(path)
    return ctx.now, stages, path.read_text()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_exact_sizing_matches_scalar_fold(name, tmp_path, monkeypatch):
    exact = fingerprint(WORKLOADS[name], tmp_path)
    scalar_fold.calls = 0
    monkeypatch.setattr(rdd_module, "estimate_partition_size", scalar_fold)
    reference = fingerprint(WORKLOADS[name], tmp_path)
    assert scalar_fold.calls > 0
    assert exact[0] == reference[0]
    assert exact[1] == reference[1]
    assert exact[2] == reference[2]
