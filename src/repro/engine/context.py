"""AnalyticsContext: the SparkContext of the simulated engine.

Owns the cluster model, the simulation clock, the shuffle manager, block
store, schedulers, metrics, and collected statistics. Workloads create
RDDs through it and run actions; CHOPPER attaches to it via
:meth:`set_advisor` (the dynamic-partitioning DAGScheduler extension) and
via the listener bus (the statistics collector).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.cluster.cluster import Cluster, paper_cluster
from repro.common.errors import ConfigurationError
from repro.common.rng import DEFAULT_SEED
from repro.common.sizing import estimate_size
from repro.engine import dependencies
from repro.engine.costmodel import CostModelConfig
from repro.engine.dag_scheduler import DAGScheduler
from repro.engine.listener import JobStats, ListenerBus, StageStats
from repro.engine.rdd import RDD, SourceRDD, parallelize_generator
from repro.engine.shuffle import ShuffleManager
from repro.engine.storage import BlockStore, SpillManager, ZoneMapStore
from repro.engine.task_scheduler import TaskScheduler
from repro.obs import MetricsRegistry, Observability
from repro.simul.engine import SimEngine
from repro.simul.metrics import MetricsRecorder


@dataclass
class EngineConf:
    """Engine configuration knobs.

    ``default_parallelism`` is the paper's vanilla baseline (300
    partitions for all workloads, §IV). ``copartition_scheduling`` turns
    on CHOPPER's co-partition-aware task placement.
    """

    default_parallelism: int = 300
    cost: CostModelConfig = field(default_factory=CostModelConfig)
    copartition_scheduling: bool = False
    task_failure_rate: float = 0.0
    max_task_attempts: int = 4
    seed: int = DEFAULT_SEED
    # Delay scheduling (Spark's spark.locality.wait): a queued task with
    # locality preferences refuses non-preferred cores for this many
    # seconds before spreading anywhere. 0 (default) = greedy spread.
    locality_wait: float = 0.0
    # Fraction of each executor's memory available for cached blocks
    # (Spark's storage memory). Cached partitions past the bound evict
    # LRU and recompute on the next read; <= 0 disables the bound.
    cache_memory_fraction: float = 0.5
    # Speculative execution (Spark's spark.speculation): once
    # `speculation_quantile` of a stage's tasks have finished, a running
    # task whose elapsed time exceeds `speculation_multiplier` x the
    # median completed duration gets a duplicate attempt on another node;
    # the first finisher wins.
    speculation: bool = False
    speculation_multiplier: float = 1.5
    speculation_quantile: float = 0.75
    # --- Node-loss chaos (the paper's future-work failure question) ---
    # Deterministic injection: worker name -> absolute simulated time at
    # which the node dies (its executor stops, running attempts fail,
    # its shuffle outputs and cached blocks are discarded).
    node_failure_times: Optional[Dict[str, float]] = None
    # Seeded random injection: each worker independently dies with this
    # probability, at a seeded time within `node_failure_window` seconds.
    node_failure_rate: float = 0.0
    node_failure_window: float = 30.0
    # > 0: a dead node's cores rejoin the pool after this many seconds
    # (a fresh executor — its lost blocks stay lost). 0 = never.
    node_recovery_delay: float = 0.0
    # Lineage recovery bounds: total runs of one map stage (first run +
    # fetch-failure resubmissions) before aborting the job, and how long
    # the DAG scheduler waits to batch concurrent fetch failures before
    # resubmitting (Spark's resubmit delay).
    max_stage_attempts: int = 4
    stage_resubmit_delay: float = 0.05
    # Keys sampled per partition when building range partitioners.
    range_sample_per_partition: int = 20
    # Simulated driver-side cost of a range-bounds sampling pass.
    range_sampling_base_delay: float = 0.2
    range_sampling_per_partition_delay: float = 0.002
    # --- Physical performance knobs (simulated results are unaffected) ---
    # Worker threads executing concurrently-granted task attempts. 1 =
    # fully serial; N > 1 runs attempt bodies on a thread pool while the
    # scheduler applies their effects in grant order, keeping the
    # simulated clock, metrics, and results bit-identical to serial.
    # None reads REPRO_PHYSICAL_PARALLELISM (default 1).
    physical_parallelism: Optional[int] = None
    # Use the numpy bulk kernels (partition_many / sizes_array) on the
    # per-record hot paths. Off = the scalar per-record loops; outputs
    # are bit-identical either way (benchmark knob).
    vectorized_kernels: bool = True
    # Shuffle block container: "list" stores per-reduce record lists,
    # "columnar" stores numpy-backed RecordBatch column slices (bucketed,
    # concatenated and folded as arrays). Outputs are bit-identical
    # either way; columnar is the fast path for large shuffles.
    record_format: str = "list"
    # Fuse chains of narrow record ops (map / filter / mapValues) into
    # one per-partition kernel instead of materializing each step's list.
    # Accounting replays per step, so metrics stay bit-identical.
    operator_fusion: bool = False
    # Physical memory budget over block payloads (cached partitions and
    # shuffle blocks), in the engine's virtual byte units. Payloads past
    # the budget spill LRU to an on-disk block directory and read back
    # transparently; simulated results are bit-identical with or without
    # a budget. None = unbudgeted (everything stays resident).
    memory_budget: Optional[float] = None
    # Directory for spill block files; each context creates a private
    # subdirectory inside it and removes it on close(). None = a tempdir.
    spill_dir: Optional[str] = None
    # Run the relational layer's logical-plan rewrite batches (predicate
    # pushdown, column pruning, projection folding, repartition/sort
    # elision, limit pushdown) before lowering Table queries to RDDs.
    # Off = lower the raw operator tree; collected results are identical
    # either way (CI gates on it), the optimized plan just runs fewer
    # stages. None reads REPRO_LOGICAL_OPT (default on).
    logical_optimizer: Optional[bool] = None
    # Partition pruning: a final optimizer batch evaluates Filter
    # predicates against declared range layouts, collected zone maps
    # and the result cache, rewriting scans into partition subsets so
    # skipped partitions never schedule tasks. Collected results are
    # bit-identical on/off (the evidence is always a conservative
    # superset). None reads REPRO_PRUNE (default on).
    partition_pruning: Optional[bool] = None
    # Result cache of pruned partition sets, keyed by query-variant
    # signature: None (off), "memory" (per-context), "sqlite" or
    # "bitmap" (file-backed; warm runs in later processes prune from
    # earlier runs' zone maps).
    result_cache: Optional[str] = None
    # File path of the sqlite/bitmap backends (required for those,
    # rejected for "memory").
    result_cache_path: Optional[str] = None
    # LRU bound on cached query variants.
    result_cache_max_entries: int = 256
    # Optional per-entry age bound in wall-clock seconds. Setting it
    # opens the backend with a wall clock (entry timestamps stop being
    # deterministic logical ticks — the trade TTL users opt into);
    # leaving it None keeps the tick clock and byte-stable cache files.
    result_cache_ttl: Optional[float] = None
    # Adaptive query execution: after each map stage materializes, the
    # DAG scheduler consults the exact per-partition shuffle sizes and
    # may re-plan the not-yet-launched reduce side (coalesce tiny
    # partitions, split hot ones into map-output slices, re-derive range
    # bounds for ordered shuffles from the measured key histogram).
    # Collected results are bit-identical on/off; only the physical task
    # layout (and thus simulated timing) changes. None reads REPRO_AQE
    # (default off).
    adaptive_execution: Optional[bool] = None
    # A reduce partition is "hot" (split candidate) when its measured
    # size exceeds this multiple of the median non-empty partition.
    aqe_skew_threshold: float = 4.0
    # Coalesce packs runs of small partitions up to (and splits carve
    # hot partitions down toward) this many virtual bytes per task.
    aqe_target_partition_bytes: float = 64.0 * 1024 * 1024
    # Upper bound on the slices a single hot partition is carved into.
    aqe_max_subpartitions: int = 16

    def __post_init__(self) -> None:
        if self.record_format not in ("list", "columnar"):
            raise ConfigurationError(
                f"record_format must be 'list' or 'columnar',"
                f" got {self.record_format!r}"
            )
        if self.physical_parallelism is None:
            env = os.environ.get("REPRO_PHYSICAL_PARALLELISM", "").strip()
            try:
                self.physical_parallelism = int(env) if env else 1
            except ValueError:
                raise ConfigurationError(
                    f"REPRO_PHYSICAL_PARALLELISM must be an integer, got {env!r}"
                ) from None
        if self.logical_optimizer is None:
            env = os.environ.get("REPRO_LOGICAL_OPT", "").strip().lower()
            self.logical_optimizer = env not in ("0", "false", "no", "off")
        if self.adaptive_execution is None:
            env = os.environ.get("REPRO_AQE", "").strip().lower()
            self.adaptive_execution = env in ("1", "true", "yes", "on")
        if self.aqe_skew_threshold <= 1.0:
            raise ConfigurationError(
                f"aqe_skew_threshold must be > 1, got {self.aqe_skew_threshold}"
            )
        if self.aqe_target_partition_bytes <= 0:
            raise ConfigurationError(
                f"aqe_target_partition_bytes must be > 0,"
                f" got {self.aqe_target_partition_bytes}"
            )
        if self.aqe_max_subpartitions < 2:
            raise ConfigurationError(
                f"aqe_max_subpartitions must be >= 2,"
                f" got {self.aqe_max_subpartitions}"
            )
        if self.physical_parallelism < 1:
            raise ConfigurationError(
                f"physical_parallelism must be >= 1, got {self.physical_parallelism}"
            )
        if self.default_parallelism < 1:
            raise ConfigurationError("default_parallelism must be >= 1")
        if not 0.0 <= self.task_failure_rate < 1.0:
            raise ConfigurationError("task_failure_rate must be in [0, 1)")
        if not 0.0 <= self.node_failure_rate <= 1.0:
            raise ConfigurationError("node_failure_rate must be in [0, 1]")
        if self.node_failure_rate > 0 and self.node_failure_window <= 0:
            raise ConfigurationError("node_failure_window must be > 0")
        for name, when in (self.node_failure_times or {}).items():
            if when < 0:
                raise ConfigurationError(
                    f"node_failure_times[{name!r}] must be >= 0 (got {when})"
                )
        if self.node_recovery_delay < 0:
            raise ConfigurationError("node_recovery_delay must be >= 0")
        if self.max_stage_attempts < 1:
            raise ConfigurationError("max_stage_attempts must be >= 1")
        if self.stage_resubmit_delay < 0:
            raise ConfigurationError("stage_resubmit_delay must be >= 0")
        if self.memory_budget is not None and self.memory_budget <= 0:
            raise ConfigurationError(
                f"memory_budget must be > 0 bytes, got {self.memory_budget}"
            )
        if self.spill_dir is not None and self.memory_budget is None:
            raise ConfigurationError(
                "spill_dir requires memory_budget (nothing spills without one)"
            )
        if self.partition_pruning is None:
            env = os.environ.get("REPRO_PRUNE", "").strip().lower()
            self.partition_pruning = env not in ("0", "false", "no", "off")
        if self.result_cache is not None and self.result_cache not in (
            "memory", "sqlite", "bitmap",
        ):
            raise ConfigurationError(
                f"unknown cache backend {self.result_cache!r}"
                f" (choose from memory, sqlite, bitmap)"
            )
        if self.result_cache in ("sqlite", "bitmap") and (
            self.result_cache_path is None
        ):
            raise ConfigurationError(
                f"cache backend {self.result_cache!r} requires a cache path"
            )
        if self.result_cache == "memory" and self.result_cache_path is not None:
            raise ConfigurationError(
                "cache backend 'memory' does not take a cache path"
            )
        if self.result_cache_path is not None and self.result_cache is None:
            raise ConfigurationError(
                "a cache path requires a cache backend (sqlite or bitmap)"
            )
        if self.result_cache_max_entries < 1:
            raise ConfigurationError(
                f"result_cache_max_entries must be >= 1,"
                f" got {self.result_cache_max_entries}"
            )
        if self.result_cache_ttl is not None and self.result_cache_ttl <= 0:
            raise ConfigurationError(
                f"result_cache_ttl must be > 0, got {self.result_cache_ttl}"
            )


class Broadcast:
    """Read-only value shipped once to every executor (e.g. KMeans centers)."""

    def __init__(self, value: Any) -> None:
        self.value = value


class AnalyticsContext:
    """Driver-side entry point for building and running workloads."""

    def __init__(
        self,
        cluster: Optional[Cluster] = None,
        conf: Optional[EngineConf] = None,
        metrics_registry: Optional[MetricsRegistry] = None,
        event_log: Optional[Any] = None,
        profiler: Optional[Any] = None,
    ) -> None:
        self.cluster = cluster or paper_cluster()
        self.conf = conf or EngineConf()
        # Shuffle ids restart per context so they are a pure function of
        # the run's DAG (see dependencies.reset_shuffle_ids).
        dependencies.reset_shuffle_ids()
        self.sim = SimEngine()
        self.metrics = MetricsRecorder()
        self.listener_bus = ListenerBus()
        # Observability hub: always-on metrics registry + optional tracer,
        # structured event log, and real-resource profiler. A registry
        # (and log / profiler) may be injected so multi-run drivers
        # aggregate one; the log's clock is rebound to this context's
        # simulated time, so its timestamps stay deterministic.
        self.obs = Observability(
            self.listener_bus,
            metrics=metrics_registry,
            nodes={w.name: w.cores for w in self.cluster.workers},
        )
        if event_log is not None:
            event_log.bind_clock(lambda: self.sim.now)
            self.obs.set_log(event_log)
        if profiler is not None:
            self.obs.set_profiler(profiler)
        self.obs.metrics.gauge("cluster.total_cores").set(self.cluster.total_cores)
        # One spill manager spans cached partitions and shuffle blocks:
        # the memory budget is over every payload the engine holds.
        self.spill: Optional[SpillManager] = None
        if self.conf.memory_budget is not None:
            self.spill = SpillManager(
                self.conf.memory_budget,
                directory=self.conf.spill_dir,
                obs=self.obs,
                clock=lambda: self.sim.now,
            )
        self.shuffle_manager = ShuffleManager(
            block_header=self.conf.cost.shuffle_block_header,
            metrics=self.obs.metrics,
            spill=self.spill,
            obs=self.obs,
        )
        if self.conf.cache_memory_fraction > 0:
            fraction = self.conf.cache_memory_fraction
            topology = self.cluster.topology

            def cache_capacity(node_name: str) -> float:
                return topology.node(node_name).executor_memory * fraction

            self.block_store = BlockStore(
                capacity_for=cache_capacity, spill=self.spill
            )
        else:
            self.block_store = BlockStore(spill=self.spill)
        self.task_scheduler = TaskScheduler(self)
        self.dag_scheduler = DAGScheduler(self)
        self.advisor: Optional[Any] = None

        self.stage_stats: List[StageStats] = []
        self.job_stats: List[JobStats] = []
        # One entry per relational plan optimized in this context (rule
        # hit counts, node counts); surfaces in the run ledger as "plan".
        self.plan_events: List[Dict[str, Any]] = []
        # Zone maps collected at scan time, and the optional result
        # cache of pruned partition sets (see relational/cache.py). The
        # import is deferred: the engine layer only needs the cache
        # machinery when a backend is actually configured.
        self.zone_maps = ZoneMapStore()
        self.query_cache: Optional[Any] = None
        if self.conf.result_cache is not None:
            from repro.relational.cache import ResultCacheManager, open_backend

            # A TTL is wall-clock seconds, so the backend needs a wall
            # clock; without one the deterministic tick clock applies
            # (one tick per get/put, keeping cache files byte-stable).
            backend = open_backend(
                self.conf.result_cache,
                path=self.conf.result_cache_path,
                max_entries=self.conf.result_cache_max_entries,
                ttl=self.conf.result_cache_ttl,
                clock=(
                    time.time
                    if self.conf.result_cache_ttl is not None
                    else None
                ),
            )
            self.query_cache = ResultCacheManager(
                backend, metrics=self.obs.metrics
            )

        self._rdd_counter = 0
        self._job_counter = 0
        self._stage_counter = 0
        self._stage_run_counter = 0

    # ------------------------------------------------------------------
    # Counters
    # ------------------------------------------------------------------

    def next_rdd_id(self) -> int:
        self._rdd_counter += 1
        return self._rdd_counter

    def next_job_id(self) -> int:
        self._job_counter += 1
        return self._job_counter

    def next_stage_id(self) -> int:
        self._stage_counter += 1
        return self._stage_counter

    def next_stage_run_id(self) -> int:
        self._stage_run_counter += 1
        return self._stage_run_counter

    # ------------------------------------------------------------------
    # RDD creation
    # ------------------------------------------------------------------

    @property
    def default_parallelism(self) -> int:
        return self.conf.default_parallelism

    def parallelize(
        self,
        data: Sequence,
        num_partitions: Optional[int] = None,
        size_scale: float = 1.0,
        op_name: str = "parallelize",
    ) -> SourceRDD:
        """Distribute an in-memory sequence as a source RDD."""
        data = list(data)
        n = num_partitions or min(self.default_parallelism, max(1, len(data)))
        return SourceRDD(
            self,
            lambda split, splits: parallelize_generator(data, split, splits),
            n,
            size_scale=size_scale,
            op_name=op_name,
        )

    def source(
        self,
        generator: Callable[[int, int], List],
        num_partitions: int,
        size_scale: float = 1.0,
        op_name: str = "source",
        cost: float = 1.0,
        version: Optional[str] = None,
    ) -> SourceRDD:
        """A re-splittable generated source (see :class:`SourceRDD`).

        Give each distinct dataset a distinct ``op_name`` — it is the
        source's structural signature. ``version`` (a content hash of
        the generator's parameters) makes the source eligible for
        zone-map statistics and the partition-pruning result cache.
        """
        return SourceRDD(
            self, generator, num_partitions,
            size_scale=size_scale, op_name=op_name, cost=cost,
            version=version,
        )

    def union(self, rdds: Sequence[RDD]) -> RDD:
        from repro.engine.rdd import UnionRDD

        return UnionRDD(self, list(rdds))

    def accumulator(self, zero: Any = 0, add_op=None, name: str = "acc"):
        """Create a write-only shared counter (see engine.accumulators)."""
        from repro.engine.accumulators import make_accumulator

        return make_accumulator(zero, add_op, name)

    def broadcast(self, value: Any) -> Broadcast:
        """Ship a value to every worker, recording the network traffic."""
        nbytes = estimate_size(value)
        now = self.sim.now
        for worker in self.cluster.workers:
            self.metrics.record_event("net_bytes", worker.name, now, nbytes)
        return Broadcast(value)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def run_job(
        self, rdd: RDD, result_fn: Optional[Callable] = None
    ) -> List[Any]:
        return self.dag_scheduler.run_job(rdd, result_fn)

    def sample_keys(self, rdd: RDD, max_partitions: int = 0) -> List:
        """Collect a key sample of a pair RDD via a lightweight job.

        Used to build range partitioners (Spark's sketch pass). Runs a
        real job, so any un-run parent shuffles execute — and are then
        reused by the main job, exactly like Spark's sampling jobs.
        ``max_partitions`` of 0 samples every partition.
        """
        per_part = self.conf.range_sample_per_partition

        def _sample(split: int, recs: List) -> List:
            if max_partitions and split >= max_partitions:
                return []
            if not recs:
                return []
            stride = max(1, len(recs) // per_part)
            return [r[0] for r in recs[::stride][:per_part]]

        sampled = rdd.map_partitions(_sample, op_name="keySample")
        return sampled.collect()

    # ------------------------------------------------------------------
    # CHOPPER hook
    # ------------------------------------------------------------------

    def set_advisor(self, advisor: Optional[Any]) -> None:
        """Install a partition advisor (``rewrite(final_rdd, ctx)``)."""
        self.advisor = advisor

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    @property
    def now(self) -> float:
        """Total simulated time elapsed in this context."""
        return self.sim.now

    def reset_stats(self) -> None:
        self.stage_stats.clear()
        self.job_stats.clear()
        self.plan_events.clear()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self) -> None:
        """Release physical resources (spill files). Idempotent.

        In-memory state stays readable — stats, metrics and cached
        results survive close() — but spilled payloads do not; close a
        context only once its results are collected.
        """
        if self.query_cache is not None:
            # Resolve this run's cache misses from the zone maps its
            # scans collected, then release the backend.
            self.query_cache.flush(self.zone_maps)
            self.query_cache.close()
        self.block_store.clear()
        self.shuffle_manager.clear()
        if self.spill is not None:
            self.spill.close()
