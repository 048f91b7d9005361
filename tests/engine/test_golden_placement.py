"""Golden task placement: dispatcher and shuffle-fetch changes move no task.

The mode-identity tests elsewhere compare execution modes with each
other, so a change that shifts every mode the same way passes them. The
digests below were recorded with the original dispatcher (a full queue
rescan per dispatch round) and the original fetch (a scan over every
map id). Each digest covers, in emission order, every task attempt's
``(stage_run_id, partition, attempt, speculative, outcome, node, start,
end)`` — failed, cancelled and node-lost attempts included — plus the
final simulated clock and the collected result. A scheduling or fetch
refactor that keeps simulated results bit-identical keeps these
digests; one that reorders a single launch does not.

To re-record after an intended behaviour change, run this module as a
script (``PYTHONPATH=src python tests/engine/test_golden_placement.py``)
and paste its output over ``GOLDEN``, saying why in the change log.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.chopper import ChopperRunner
from repro.cluster import paper_cluster, uniform_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.engine.costmodel import CostModelConfig
from repro.engine.partitioner import HashPartitioner
from repro.obs import Tracer
from repro.workloads import KMeansWorkload, SQLWorkload, WordCountWorkload


def _digest(ctx: AnalyticsContext, tracer: Tracer, value: object) -> str:
    rows = [
        (
            e.args["stage_run_id"], e.args["partition"], e.args["attempt"],
            e.args["speculative"], e.args["outcome"], e.node,
            repr(e.start), repr(e.end),
        )
        for e in tracer.events
        if e.cat == "task"
    ]
    blob = repr((rows, repr(ctx.now), repr(value)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def _run(workload, cluster, scale: float = 0.05, **conf_kwargs) -> str:
    conf_kwargs.setdefault("default_parallelism", 24)
    ctx = AnalyticsContext(cluster, EngineConf(**conf_kwargs))
    tracer = Tracer()
    ctx.obs.set_tracer(tracer)
    try:
        result = workload.run(ctx, scale=scale)
        return _digest(ctx, tracer, result.value)
    finally:
        ctx.close()


def _small_cluster():
    # 6 cores for 24 tasks: every stage queues, so both dispatch passes
    # run on every completion.
    return uniform_cluster(n_workers=3, cores=2)


def case_speculation() -> str:
    return _run(
        WordCountWorkload(), _small_cluster(), speculation=True,
        cost=CostModelConfig(jitter_sigma=0.5),
    )


def case_locality_wait_cached() -> str:
    # KMeans caches its points: later iterations prefer the caching node,
    # and on the heterogeneous paper cluster thousands of dispatches hold
    # a task back for its preferred node under the locality wait.
    return _run(
        KMeansWorkload(physical_records=2000), paper_cluster(),
        default_parallelism=300, locality_wait=1.0,
        cost=CostModelConfig(jitter_sigma=0.2),
    )


def case_task_failures() -> str:
    return _run(WordCountWorkload(), _small_cluster(), task_failure_rate=0.15)


def case_node_loss_recovery() -> str:
    # w1 dies inside the reduce stage: fetch failures, a map-stage
    # resubmission, then the node rejoins with empty executors.
    return _run(
        WordCountWorkload(), _small_cluster(),
        node_failure_times={"w1": 160.0}, node_recovery_delay=3.0,
    )


def case_chopper_copartition() -> str:
    # Pinned optimizer: the relational suite also runs with it disabled.
    workload = SQLWorkload(virtual_gb=2.0, physical_records=1500, optimize=True)
    runner = ChopperRunner(workload, base_conf=EngineConf(default_parallelism=40))
    runner.profile(p_grid=(20, 60), kinds=("hash",), scales=(0.5, 1.0))
    runner.train()
    outcome = runner.run_chopper(mode="global")
    assert outcome.ctx.conf.copartition_scheduling
    # The runner builds its own context, so read the measured run's
    # task metrics (its successful attempts) instead of trace spans.
    placements = [
        (t.stage_run_id, t.task_index, t.attempt, t.speculative, t.node,
         repr(t.start), repr(t.end))
        for s in outcome.ctx.stage_stats for t in s.tasks
    ]
    blob = repr((placements, repr(outcome.ctx.now), repr(outcome.result.value)))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def case_copartition_burst() -> str:
    # Every task of a stage queues at once and reduce tasks prefer two
    # nodes each, competing for 6 cores: the locality pass's queue order
    # decides which task gets which core.
    return _run(
        WordCountWorkload(), _small_cluster(), copartition_scheduling=True,
        cost=CostModelConfig(driver_dispatch_interval=0.0),
    )


# Half the records carry key 0: the identity shuffle splits its hot
# partition, the combined fold coalesces the tiny ones.
SKEWED = [((i % 40) if i % 2 else 0, i) for i in range(12000)]


def case_aqe_split_coalesce() -> str:
    ctx = AnalyticsContext(_small_cluster(), EngineConf(
        default_parallelism=24, adaptive_execution=True,
        aqe_target_partition_bytes=16.0 * 1024, aqe_skew_threshold=2.0,
    ))
    tracer = Tracer()
    ctx.obs.set_tracer(tracer)
    try:
        split = (
            ctx.parallelize(SKEWED, 8).partition_by(HashPartitioner(16))
            .values().map(lambda v: v * 2).collect()
        )
        folded = (
            ctx.parallelize(SKEWED, 8)
            .reduce_by_key(lambda a, b: a + b, 16).collect()
        )
        return _digest(ctx, tracer, (split, folded))
    finally:
        ctx.close()


def case_physical_parallelism() -> str:
    return _run(
        KMeansWorkload(physical_records=2000), paper_cluster(),
        default_parallelism=300, physical_parallelism=4,
    )


CASES = {
    "speculation": case_speculation,
    "locality_wait_cached": case_locality_wait_cached,
    "task_failures": case_task_failures,
    "node_loss_recovery": case_node_loss_recovery,
    "chopper_copartition": case_chopper_copartition,
    "copartition_burst": case_copartition_burst,
    "aqe_split_coalesce": case_aqe_split_coalesce,
    "physical_parallelism": case_physical_parallelism,
}

GOLDEN = {
    'aqe_split_coalesce': '9eb28fd7e6b0f592828c5e57',
    'chopper_copartition': '4c6a359f0706cc13596c3e74',
    'copartition_burst': '883e50ef79004f6459d6ef0e',
    'locality_wait_cached': 'be04d37cf00a9f7564f54ee0',
    'node_loss_recovery': '18a595174de2a505d3aba0a9',
    'physical_parallelism': 'f10c61c1cb19b99751725456',
    'speculation': '843fcd6b45ee923670b1aa83',
    'task_failures': '83666386998eb86af026ba4a',
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_placement_matches_golden(name):
    assert CASES[name]() == GOLDEN[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f"    {name!r}: {CASES[name]()!r},")
