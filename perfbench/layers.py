"""Outside-in per-layer timing: wrap ``repro`` functions, account self-time.

The program has no timers of its own, so the traced run patches the
public entry points of each ``repro`` module from here, for the length
of one job. Every wrapped call opens a frame on a stack; when it
returns, its elapsed time minus the time of the frames nested inside it
is its layer's *self-time*, and its whole elapsed time is charged to the
parent frame as child time. The job itself is the root frame, whose
self-time is ``other.self_s``: traced wall that no named layer covers.
Self-times therefore telescope: on the driver they sum to the job's
wall time exactly, up to float rounding (see :meth:`LayerTracer.check_sum`).

A call into the layer that is already on top of the stack runs
unwrapped (recursion such as ``estimate_size`` on nested tuples, or a
sizing helper calling another), so counts are taken at the outermost
call of a layer and the wrapper cost stays off nested calls.

Forked pool workers inherit the patched functions. Each worker resets
its inherited stack when ``measure_chunk`` starts, times the chunk as its
own root, and writes its totals to a file in ``spool``; the driver folds
those files in when the job ends, so worker time shows under the same
layer names. Worker time runs beside the driver's wait in
``run_specs``, so with workers the self-times sum to
``job_s + chopper.parallel.worker_busy_s``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

OTHER = "other.self_s"
WORKER_BUSY = "chopper.parallel.worker_busy_s"
INLINE = "chopper.parallel.inline_s"

# Relative tolerance of the self-time identity (see check_sum). The
# identity is exact arithmetic; the slack only absorbs float rounding.
SUM_TOLERANCE = 0.005

Counts = Tuple[Tuple[str, Callable[[tuple, Any], float]], ...]


def _n(_args, result) -> float:
    return len(result)


def _arg_len(index: int) -> Callable[[tuple, Any], float]:
    return lambda args, _result: len(args[index])


def _one(_args, _result) -> float:
    return 1


def _blocks_put(args, _result) -> float:
    # put_map_output(self, shuffle_id, map_id, node, partitioned)
    return sum(1 for records, _ in args[4].values() if records)


def _groups_out(args, result) -> float:
    return len(result) if result is not None else 0


def _cache_hit(args, result) -> float:
    return 1 if result is not None else 0


def _cache_miss(args, result) -> float:
    return 1 if result is None else 0


# (module, qualified name, self-time metric, counts, inclusive-time metric).
# The self-time metric names the layer.
TIMED: List[Tuple[str, str, str, Counts, Optional[str]]] = [
    ("repro.workloads.datagen", "_GenBase._gather",
     "workloads.datagen.self_s", (("workloads.datagen.records", _n),), None),
    ("repro.engine.executor", "TaskRunner.execute",
     "engine.executor.self_s", (("engine.executor.tasks", _one),), None),
    ("repro.engine.partitioner", "Partitioner.partition_many",
     "engine.partitioner.self_s", (("engine.partitioner.keys", _arg_len(1)),), None),
    ("repro.engine.partitioner", "HashPartitioner.partition_many",
     "engine.partitioner.self_s", (("engine.partitioner.keys", _arg_len(1)),), None),
    ("repro.engine.partitioner", "RangePartitioner.partition_many",
     "engine.partitioner.self_s", (("engine.partitioner.keys", _arg_len(1)),), None),
    ("repro.engine.partitioner", "RangePartitioner.from_sample",
     "engine.partitioner.self_s", (), "engine.partitioner.sample_s"),
    ("repro.engine.partitioner", "RangePartitioner.from_weighted_keys",
     "engine.partitioner.self_s", (), "engine.partitioner.sample_s"),
    ("repro.common.sizing", "estimate_size",
     "common.sizing.self_s", (("common.sizing.records", _one),), None),
    ("repro.common.sizing", "estimate_sizes",
     "common.sizing.self_s", (("common.sizing.records", _arg_len(0)),), None),
    ("repro.common.sizing", "sizes_array",
     "common.sizing.self_s", (("common.sizing.records", _arg_len(0)),), None),
    ("repro.common.sizing", "estimate_partition_size",
     "common.sizing.self_s", (("common.sizing.records", _arg_len(0)),), None),
    ("repro.engine.batch", "RecordBatch.sizes_array",
     "common.sizing.self_s", (("common.sizing.records", _arg_len(0)),), None),
    ("repro.engine.combine", "combine_numeric_add",
     "engine.combine.self_s", (("engine.combine.keys_in", _arg_len(1)),
                               ("engine.combine.groups_out", _groups_out)), None),
    ("repro.engine.combine", "fold_batch",
     "engine.combine.self_s", (("engine.combine.keys_in", _arg_len(0)),
                               ("engine.combine.groups_out", _groups_out)), None),
    ("repro.engine.shuffle", "ShuffleManager.put_map_output",
     "engine.shuffle.put_s", (("engine.shuffle.blocks_put", _blocks_put),), None),
    ("repro.engine.shuffle", "ShuffleManager.fetch",
     "engine.shuffle.fetch_s", (("engine.shuffle.fetches", _one),), None),
    ("repro.engine.storage", "BlockStore.put", "engine.storage.self_s", (), None),
    ("repro.engine.storage", "BlockStore.get", "engine.storage.self_s", (), None),
    ("repro.engine.storage", "BlockStore.evict_rdd", "engine.storage.self_s", (), None),
    ("repro.engine.storage", "BlockStore.evict_node", "engine.storage.self_s", (), None),
    ("repro.engine.dag_scheduler", "DAGScheduler.run_job",
     "engine.dag_scheduler.self_s", (), None),
    ("repro.engine.dag_scheduler", "DAGScheduler.provisional_stages",
     "engine.dag_scheduler.self_s", (), None),
    ("repro.engine.dag_scheduler", "DAGScheduler._on_stage_complete",
     "engine.dag_scheduler.self_s", (), None),
    ("repro.engine.dag_scheduler", "DAGScheduler.handle_fetch_failure",
     "engine.dag_scheduler.self_s", (), None),
    ("repro.engine.dag_scheduler", "StageRun.task_finished",
     "engine.dag_scheduler.self_s", (), None),
    ("repro.simul.engine", "SimEngine.run", "simul.engine.self_s", (), None),
    ("repro.engine.task_scheduler", "TaskScheduler.submit_tasks",
     "simul.engine.self_s", (), None),
    ("repro.engine.task_scheduler", "TaskScheduler._dispatch",
     "simul.engine.self_s", (), None),
    ("repro.engine.task_scheduler", "TaskScheduler._on_attempt_done",
     "simul.engine.self_s", (), None),
    ("repro.obs.ledger", "RunLedger.append", "obs.self_s", (), None),
    ("repro.obs.log", "EventLog.emit", "obs.self_s", (), None),
    ("repro.obs.log", "EventLog.extend", "obs.self_s", (), None),
    ("repro.obs.metrics", "MetricsRegistry.counter", "obs.self_s", (), None),
    ("repro.obs.metrics", "MetricsRegistry.gauge", "obs.self_s", (), None),
    ("repro.obs.metrics", "MetricsRegistry.histogram", "obs.self_s", (), None),
    ("repro.obs.metrics", "MetricsRegistry.merge_state", "obs.self_s", (), None),
    ("repro.obs.metrics", "Counter.inc", "obs.self_s", (), None),
    ("repro.obs.metrics", "Gauge.set", "obs.self_s", (), None),
    ("repro.obs.metrics", "Histogram.observe", "obs.self_s", (), None),
    ("repro.obs.ledger", "LedgerCollector.on_stage_submitted", "obs.self_s", (), None),
    ("repro.obs.ledger", "LedgerCollector.on_task_end", "obs.self_s", (), None),
    ("repro.obs.ledger", "LedgerCollector.on_stage_completed", "obs.self_s", (), None),
    ("repro.obs.ledger", "LedgerCollector.on_job_end", "obs.self_s", (), None),
    ("repro.obs.ledger", "LedgerCollector.on_span", "obs.self_s", (), None),
    ("repro.obs.ledger", "LedgerCollector.body", "obs.self_s", (), None),
    ("repro.chopper.runner", "ChopperRunner.train", "chopper.model.fit_s", (), None),
    ("repro.chopper.runner", "ChopperRunner.optimize",
     "chopper.optimizer.self_s", (), None),
    # The driver's wait on the pool is what remains of run_specs once
    # the inline measure_one (its own frame, below) is taken out.
    ("repro.chopper.parallel", "run_specs", "chopper.parallel.pool_s", (), None),
    ("repro.chopper.parallel", "measure_one", OTHER, (), INLINE),
    ("repro.relational.rules", "RuleRunner.optimize",
     "relational.rules.self_s", (), None),
    ("repro.relational.stats", "collect_column_stats",
     "relational.stats.self_s", (), None),
    ("repro.relational.stats", "can_match", "relational.stats.self_s", (), None),
    ("repro.relational.stats", "RangeLayout.kept_partitions",
     "relational.stats.self_s", (), None),
    ("repro.relational.cache", "open_backend", "relational.cache.self_s", (), None),
    ("repro.relational.cache", "ResultCacheManager.lookup",
     "relational.cache.self_s", (("relational.cache.hits", _cache_hit),
                                 ("relational.cache.misses", _cache_miss)), None),
    ("repro.relational.cache", "ResultCacheManager.note_planned",
     "relational.cache.self_s", (), None),
    ("repro.relational.cache", "ResultCacheManager.flush",
     "relational.cache.self_s", (), None),
    ("repro.relational.cache", "ResultCacheManager.close",
     "relational.cache.self_s", (), None),
]


def _scan_stats(args, result) -> Dict[str, float]:
    """Source partitions of prunable (versioned) scans in a stage run."""
    stage = args[0]
    versioned = any(
        getattr(rdd, "dataset_version", None) is not None
        for rdd in stage.input_rdds()
    )
    return {
        "relational.partitions_pruned": result,
        "relational.partitions_scanned": stage.num_tasks if versioned else 0,
    }


# Count-only hooks: no frame, no timing, just counts when a job is live.
# Unlike the counts in TIMED, these also count calls nested in their own
# layer (DAGScheduler runs stages from inside its own methods).
COUNTED: List[Tuple[str, str, Callable[[tuple, Any], Dict[str, float]]]] = [
    ("repro.engine.dag_scheduler", "DAGScheduler._run_stage",
     lambda a, r: {"engine.dag_scheduler.stages": 1}),
    ("repro.obs.log", "EventLog.emit", lambda a, r: {"obs.log_records": 1}),
    ("repro.engine.task_scheduler", "TaskScheduler._grant",
     lambda a, r: {"engine.task_scheduler.tasks_launched": 1}),
    ("repro.chopper.runner", "ChopperRunner._measured_run",
     lambda a, r: {"chopper.runner.runs": 1}),
    ("repro.chopper.parallel", "measure_one",
     lambda a, r: {"chopper.runner.runs": 1}),
    ("repro.engine.dag_scheduler", "DAGScheduler._pruned_partitions", _scan_stats),
]

# Every metric the traced run reports, 0 where a layer is idle.
LAYER_METRICS: Dict[str, str] = {
    "workloads.datagen.self_s": "s",
    "workloads.datagen.records": "count",
    "engine.executor.self_s": "s",
    "engine.executor.tasks": "count",
    "engine.partitioner.self_s": "s",
    "engine.partitioner.keys": "count",
    "engine.partitioner.sample_s": "s",
    "common.sizing.self_s": "s",
    "common.sizing.records": "count",
    "engine.combine.self_s": "s",
    "engine.combine.keys_in": "count",
    "engine.combine.groups_out": "count",
    "engine.shuffle.put_s": "s",
    "engine.shuffle.fetch_s": "s",
    "engine.shuffle.blocks_put": "count",
    "engine.shuffle.fetches": "count",
    "engine.storage.self_s": "s",
    "engine.dag_scheduler.self_s": "s",
    "engine.dag_scheduler.stages": "count",
    "simul.engine.self_s": "s",
    "engine.task_scheduler.tasks_launched": "count",
    "obs.self_s": "s",
    "obs.log_records": "count",
    "obs.ledger_bytes": "bytes",
    "chopper.model.fit_s": "s",
    "chopper.optimizer.self_s": "s",
    "chopper.runner.runs": "count",
    "chopper.parallel.inline_s": "s",
    "chopper.parallel.pool_s": "s",
    "chopper.parallel.worker_busy_s": "s",
    "chopper.parallel.cpu_s": "s",
    "relational.rules.self_s": "s",
    "relational.stats.self_s": "s",
    "relational.cache.self_s": "s",
    "relational.cache.hits": "count",
    "relational.cache.misses": "count",
    "relational.partitions_scanned": "count",
    "relational.partitions_pruned": "count",
    "other.self_s": "s",
    "trace.overhead_ratio": "ratio",
}

# Self-time metrics: each second of a traced job lands in exactly one.
SELF_METRICS = sorted({spec[2] for spec in TIMED} | {OTHER})


def _resolve(module: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner, attribute, raw attribute) for ``module:qualname``."""
    owner: Any = importlib.import_module(module)
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    name = parts[-1]
    if inspect.isclass(owner):
        raw = inspect.getattr_static(owner, name)
        if name not in vars(owner):
            raise LookupError(f"{module}.{qualname} is inherited, not defined")
    else:
        raw = getattr(owner, name)
    return owner, name, raw


class Frame:
    """One open call on the layer stack, with the time of its children."""

    __slots__ = ("layer", "child")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.child = 0.0


class LayerTracer:
    """Installs the wrappers and accumulates per-layer totals.

    ``totals`` holds self-times, inclusive times and counts by metric
    name, summed over every traced job.
    """

    def __init__(self, spool: Path) -> None:
        self.spool = Path(spool)
        self.owner_pid = os.getpid()
        self.stack: List[Frame] = []
        self.totals: Dict[str, float] = defaultdict(float)
        self.job_wall = 0.0
        self.jobs = 0
        self._ledger_sizes: Dict[str, int] = {}
        self._patches: List[Tuple[Any, str, Any, Any]] = []
        self._chunk_seq = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Patch every target; :meth:`uninstall` puts the originals back."""
        if self._patches:
            raise RuntimeError("layer tracer already installed")
        hooks: Dict[Tuple[str, str], List[Callable]] = defaultdict(list)
        for module, qualname, self_metric, counts, inclusive in TIMED:
            hooks[(module, qualname)].append(
                lambda fn, m=self_metric, c=counts, i=inclusive:
                self._timed(fn, m, c, i)
            )
        for module, qualname, counter in COUNTED:
            hooks[(module, qualname)].append(
                lambda fn, c=counter: self._counted(fn, c)
            )
        hooks[("repro.chopper.parallel", "measure_chunk")].append(self._worker_root)
        hooks[("repro.obs.ledger", "RunLedger.append")].append(self._ledger_bytes)
        for (module, qualname), makers in hooks.items():
            owner, name, raw = _resolve(module, qualname)
            kind = type(raw) if isinstance(raw, (staticmethod, classmethod)) else None
            fn = raw.__func__ if kind is not None else raw
            wrapped = fn
            for make in makers:
                wrapped = make(wrapped)
            self._patch(owner, name, raw, kind(wrapped) if kind else wrapped)
            if not inspect.isclass(owner):
                # `from module import fn` copies the reference: patch
                # every repro module namespace holding the same object.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is owner or not mod_name.startswith("repro"):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is raw:
                            self._patch(mod, attr, raw, wrapped)

    def _patch(self, owner: Any, name: str, old: Any, new: Any) -> None:
        setattr(owner, name, new)
        self._patches.append((owner, name, old, new))

    def uninstall(self) -> None:
        for owner, name, old, _new in reversed(self._patches):
            setattr(owner, name, old)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _timed(self, fn, metric: str, counts, inclusive: Optional[str]):
        stack = self.stack
        totals = self.totals
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack or stack[-1].layer == metric:
                return fn(*args, **kwargs)
            frame = Frame(metric)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                totals[metric] += elapsed - frame.child
                if stack:
                    stack[-1].child += elapsed
                if inclusive is not None:
                    totals[inclusive] += elapsed
            for name, count in counts:
                totals[name] += count(args, result)
            return result

        return wrapper

    def _counted(self, fn, counter):
        stack = self.stack
        totals = self.totals

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if stack:
                for name, value in counter(args, result).items():
                    totals[name] += value
            return result

        return wrapper

    def _ledger_bytes(self, fn):
        stack = self.stack
        totals = self.totals
        sizes = self._ledger_sizes

        @functools.wraps(fn)
        def wrapper(ledger, *args, **kwargs):
            result = fn(ledger, *args, **kwargs)
            if stack:
                size = os.path.getsize(ledger.path)
                totals["obs.ledger_bytes"] += size - sizes.get(ledger.path, 0)
                sizes[ledger.path] = size
            return result

        return wrapper

    def _worker_root(self, fn):
        """Root frame for a forked worker's chunk; spools its totals."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() == self.owner_pid:
                return fn(*args, **kwargs)  # never called on the driver
            del self.stack[:]
            self.totals.clear()
            with self.root(WORKER_BUSY):
                result = fn(*args, **kwargs)
            self._chunk_seq += 1
            out = self.spool / f"worker-{os.getpid()}-{self._chunk_seq}.json"
            tmp = out.with_suffix(".tmp")
            tmp.write_text(json.dumps(dict(self.totals)))
            tmp.replace(out)
            self.totals.clear()
            return result

        return wrapper

    # -- job accounting ----------------------------------------------------

    def root(self, inclusive: Optional[str] = None) -> "_Root":
        return _Root(self, inclusive)

    def trace_job(self, job: Callable[[], Any]) -> Tuple[Any, float]:
        """Run ``job`` as one traced job; returns (result, wall seconds)."""
        self.install()
        try:
            with self.root() as root:
                result = job()
        finally:
            self.uninstall()
        self.job_wall += root.elapsed
        self.jobs += 1
        self.collect_workers()
        return result, root.elapsed

    def collect_workers(self) -> None:
        """Fold the spooled worker totals into ours."""
        for path in sorted(self.spool.glob("worker-*.json")):
            for name, value in json.loads(path.read_text()).items():
                self.totals[name] += value
            path.unlink()

    def per_job(self) -> Dict[str, float]:
        """Every layer metric averaged over the traced jobs (0 if idle)."""
        jobs = max(1, self.jobs)
        return {
            name: self.totals.get(name, 0.0) / jobs
            for name in LAYER_METRICS
            if name != "trace.overhead_ratio"
        }

    def check_sum(self) -> Tuple[bool, float, float]:
        """(ok, sum of self-times, expected) over all traced jobs.

        Expected is the traced job wall time plus the workers' busy time,
        because a worker's layers run beside the driver's wait.
        """
        total = sum(self.totals.get(m, 0.0) for m in SELF_METRICS)
        expected = self.job_wall + self.totals.get(WORKER_BUSY, 0.0)
        ok = abs(total - expected) <= SUM_TOLERANCE * max(self.job_wall, 1e-9)
        return ok, total, expected


class _Root:
    """The outermost frame: one traced job (or one worker chunk)."""

    def __init__(self, tracer: LayerTracer, inclusive: Optional[str]) -> None:
        self.tracer = tracer
        self.inclusive = inclusive
        self.frame = Frame(OTHER)
        self.t0 = 0.0
        self.elapsed = 0.0

    def __enter__(self) -> "_Root":
        if self.tracer.stack:
            raise RuntimeError("traced jobs do not nest")
        self.tracer.stack.append(self.frame)
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self.t0
        self.tracer.stack.pop()
        totals = self.tracer.totals
        totals[OTHER] += self.elapsed - self.frame.child
        if self.inclusive is not None:
            totals[self.inclusive] += self.elapsed
