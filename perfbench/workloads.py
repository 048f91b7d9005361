"""The four benchmark workloads, their oracles and their guards.

Each workload is driven through ``repro``'s public API the same way a
``repro`` invocation drives it: every job starts by dropping the data
generator's block cache, so it pays cold generation. A workload has
three parts, and only :meth:`job` is timed:

* ``setup(workdir)`` builds what a job needs (conf, cluster, runner,
  output files in the fresh per-job ``workdir``) and returns it as a
  state dict;
* ``job(state)`` runs the workload and returns its raw outputs;
* ``check(state, out)`` runs the oracles and the non-vacuity guards and
  returns one line per problem (empty when the job is correct).

``fingerprint(out)`` condenses a job's outputs into a value that must be
identical across every job of one benchmark run (same seed, same
inputs); the first job of a run is the reference.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import math
import sqlite3
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.chopper import ChopperRunner
from repro.chopper import parallel
from repro.chopper.workload_db import WorkloadDB
from repro.cluster import paper_cluster
from repro.engine import AnalyticsContext, EngineConf
from repro.obs import EventLog, MetricsRegistry, RunLedger
from repro.workloads import KMeansWorkload, ShuffleWordCountWorkload, WordCountWorkload
from repro.workloads.datagen import SQLTableGen, TextDataGen, clear_block_cache
from repro.workloads.sql import SQLWorkload

MB = 1e6


def _source_records(rdd) -> List:
    """Every record of a generated source, read in one split.

    Sources are pure functions of the record index, so one split holds
    exactly the records any partitioning of the same source holds.
    """
    return list(rdd._generator(0, 1))


def _scratch_context() -> AnalyticsContext:
    return AnalyticsContext(paper_cluster(), EngineConf())


class Sweep:
    """Full CHOPPER loop on a WordCount variant: profile, train, optimize, run."""

    name = "wordcount-sweep"
    workload_cls = WordCountWorkload
    jobs = 1
    # Process-pool jobs of the warm-up (reference) job; None = as timed.
    reference_jobs: Optional[int] = None
    sizes = {"full": 15_000, "tiny": 1_500}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.records = self.sizes[size]
        self.parallelism = 100 if size == "full" else 16
        self.p_grid = [50, 100] if size == "full" else [8, 16]
        self.scale = 0.25

    def setup(self, workdir: Path) -> Dict[str, Any]:
        workload = self.workload_cls(physical_records=self.records, seed=self.seed)
        runner = ChopperRunner(
            workload,
            base_conf=EngineConf(default_parallelism=self.parallelism),
            db=WorkloadDB(),
        )
        return {"runner": runner, "db_path": workdir / "workload_db.json"}

    def job(self, state: Dict[str, Any], jobs: Optional[int] = None) -> Dict[str, Any]:
        runner: ChopperRunner = state["runner"]
        jobs = self.jobs if jobs is None else jobs
        clear_block_cache()
        parallel.last_dispatch = ""
        runner.profile(
            p_grid=self.p_grid, kinds=["hash", "range"], scales=[self.scale],
            jobs=jobs,
        )
        dispatch = parallel.last_dispatch
        runner.train()
        config = runner.optimize(scale=self.scale)
        outcome = runner.run_chopper(config=config, scale=self.scale)
        return {
            "outcome": outcome, "config": config.to_json(),
            "jobs": jobs, "dispatch": dispatch,
            "sim_s": outcome.total_time,
            "sim_shuffle_mb": outcome.total_shuffle_bytes / MB,
        }

    def fingerprint(self, state: Dict[str, Any], out: Dict[str, Any]) -> Tuple:
        path: Path = state["db_path"]
        state["runner"].db.save(path)
        db = hashlib.sha256(path.read_bytes()).hexdigest()
        return (db, out["config"], out["sim_s"], out["sim_shuffle_mb"])

    def expected_counts(self, workload) -> Counter:
        """Word counts of the generated lines, by ``collections.Counter``."""
        gen = TextDataGen(
            virtual_bytes=workload.virtual_bytes(self.scale),
            physical_records=workload.physical_records,
            vocabulary=workload.vocabulary,
            seed=workload.seed,
        )
        lines = _source_records(gen.rdd(_scratch_context(), 1))
        return Counter(word for line in lines for word in line.split())

    @functools.cached_property
    def expected(self) -> Tuple[List[Tuple[str, Any]], int]:
        """(top-N, distinct count): the oracle's answer, computed once."""
        workload = self.workload_cls(physical_records=self.records, seed=self.seed)
        counts = self.expected_counts(workload)
        top = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[: workload.top_n]
        return top, len(counts)

    def check(self, state: Dict[str, Any], out: Dict[str, Any]) -> List[str]:
        top, distinct = self.expected
        result = out["outcome"].result
        problems = []
        if [tuple(kv) for kv in result.value] != top:
            problems.append(f"{self.name}: top-{len(top)} differs from Counter")
        if result.details["distinct"] != distinct:
            problems.append(
                f"{self.name}: distinct {result.details['distinct']} != "
                f"Counter's {distinct}"
            )
        return problems


class ShuffleSweep(Sweep):
    """The same loop without map-side combine, fanned over a process pool."""

    name = "shuffle-sweep"
    workload_cls = ShuffleWordCountWorkload
    jobs = 2
    reference_jobs = 1
    # Above repro.chopper.parallel.SMALL_RUN_RECORDS, so the pool is used.
    sizes = {"full": 26_000, "tiny": 1_500}

    def expected_counts(self, workload) -> Counter:
        min_len = workload.min_word_len
        counts = super().expected_counts(workload)
        return Counter(
            {word: float(n) for word, n in counts.items() if len(word) >= min_len}
        )

    def check(self, state: Dict[str, Any], out: Dict[str, Any]) -> List[str]:
        problems = super().check(state, out)
        # A pooled job that ran inline (one usable core, or inputs under
        # the pool's size floor) would silently measure the serial loop.
        if out["jobs"] > 1 and out["dispatch"] != "pool":
            problems.append(
                f"{self.name}: sweep dispatched {out['dispatch']!r}, not 'pool'"
            )
        return problems


class KMeansRun:
    """One KMeans run at P=300 with the ledger, event log and metrics on."""

    name = "kmeans-run"
    reference_jobs: Optional[int] = None
    sizes = {"full": 8_000, "tiny": 400}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.records = self.sizes[size]
        self.parallelism = 300 if size == "full" else 32

    def setup(self, workdir: Path) -> Dict[str, Any]:
        ledger_path = workdir / "ledger.jsonl"
        log_path = workdir / "run.log"
        metrics_path = workdir / "metrics.json"
        runner = ChopperRunner(
            KMeansWorkload(physical_records=self.records, seed=self.seed),
            base_conf=EngineConf(default_parallelism=self.parallelism),
            db=WorkloadDB(),
            ledger=RunLedger(str(ledger_path)),
            event_log=EventLog(),
            metrics_registry=MetricsRegistry(),
        )
        return {
            "runner": runner, "ledger": ledger_path, "log": log_path,
            "metrics": metrics_path,
        }

    def job(self, state: Dict[str, Any], jobs: Optional[int] = None) -> Dict[str, Any]:
        runner: ChopperRunner = state["runner"]
        clear_block_cache()
        outcome = runner.run_vanilla(scale=1.0)
        runner.event_log.save(str(state["log"]))
        runner.metrics_registry.save(str(state["metrics"]))
        return {
            "outcome": outcome,
            "sim_s": outcome.total_time,
            "sim_shuffle_mb": outcome.total_shuffle_bytes / MB,
        }

    def fingerprint(self, state: Dict[str, Any], out: Dict[str, Any]) -> Tuple:
        centers = out["outcome"].result.value
        digest = hashlib.sha256(centers.tobytes()).hexdigest()
        return (digest, out["sim_s"], out["sim_shuffle_mb"])

    def check(self, state: Dict[str, Any], out: Dict[str, Any]) -> List[str]:
        problems = []
        details = out["outcome"].result.details
        if details["members"] != details["n"] or details["n"] != self.records:
            problems.append(
                f"{self.name}: cluster sizes sum to {details['members']}, "
                f"{details['n']} points counted, {self.records} generated"
            )
        entries = RunLedger(str(state["ledger"])).entries()
        if not entries:
            problems.append(f"{self.name}: run ledger is empty")
        log = state["log"]
        if not log.exists() or log.stat().st_size == 0:
            problems.append(f"{self.name}: event log is empty")
        return problems


class SQLRepeat:
    """Selective SQL queries sharing one fresh on-disk result cache."""

    name = "sql-repeat"
    reference_jobs: Optional[int] = None
    # Order-id bounds as shares of the orders, in query order: the first
    # query with each bound misses the cache and writes; every repeat
    # hits and prunes.
    shares = (0.125, 0.3, 0.125, 0.3)
    sizes = {"full": 2_000, "tiny": 600}

    def __init__(self, seed: int, size: str = "full") -> None:
        self.seed = seed
        self.records = self.sizes[size]
        self.parallelism = 300 if size == "full" else 40
        self.bounds = [int(share * self.records) for share in self.shares]

    def setup(self, workdir: Path) -> Dict[str, Any]:
        cache = workdir / "result_cache.db"
        conf = EngineConf(
            default_parallelism=self.parallelism,
            result_cache="sqlite",
            result_cache_path=str(cache),
        )
        return {"conf": conf}

    def workload(self, bound: int) -> SQLWorkload:
        return SQLWorkload(
            physical_records=self.records, seed=self.seed, max_order=bound,
            virtual_gb=1.0,
        )

    def job(self, state: Dict[str, Any], jobs: Optional[int] = None) -> Dict[str, Any]:
        queries = []
        sim_s = shuffle = 0.0
        for bound in self.bounds:
            clear_block_cache()
            ctx = AnalyticsContext(paper_cluster(), state["conf"])
            try:
                rows = self.workload(bound).run(ctx).value
                hits = ctx.query_cache.hits
            finally:
                ctx.close()
            stages = [s for job in ctx.job_stats for s in job.stages]
            sim_s += ctx.now
            shuffle += sum(s.shuffle_bytes for s in stages)
            queries.append({
                "bound": bound, "rows": rows, "hits": hits,
                "pruned": sum(s.pruned_partitions for s in stages),
            })
        return {"queries": queries, "sim_s": sim_s, "sim_shuffle_mb": shuffle / MB}

    def fingerprint(self, state: Dict[str, Any], out: Dict[str, Any]) -> Tuple:
        rows = tuple(tuple(q["rows"]) for q in out["queries"])
        return (rows, out["sim_s"], out["sim_shuffle_mb"])

    @functools.cached_property
    def expected(self) -> Dict[int, List[Tuple[str, float]]]:
        """sqlite3's rows for every bound, computed once."""
        return {b: self.expected_rows(b) for b in set(self.bounds)}

    def expected_rows(self, bound: int) -> List[Tuple[str, float]]:
        """The docstring query of repro.workloads.sql, run by sqlite3."""
        workload = self.workload(bound)
        gen = SQLTableGen(
            virtual_bytes=workload.virtual_bytes(1.0),
            physical_records=workload.physical_records,
            n_customers=workload.n_customers,
            n_regions=workload.n_regions,
            seed=workload.seed,
            orders_layout=workload.orders_layout,
        )
        ctx = _scratch_context()
        with contextlib.closing(sqlite3.connect(":memory:")) as db:
            db.execute("CREATE TABLE orders"
                       " (order_id INT, cust_id INT, product_id INT, amount REAL)")
            db.execute("CREATE TABLE customers (cust_id INT, region TEXT)")
            db.executemany("INSERT INTO orders VALUES (?, ?, ?, ?)",
                           _source_records(gen.orders_rdd(ctx, 1)))
            db.executemany("INSERT INTO customers VALUES (?, ?)",
                           _source_records(gen.customers_rdd(ctx, 1)))
            rows = db.execute(
                """SELECT c.region, SUM(o.amount) AS revenue
                   FROM   (SELECT cust_id, SUM(amount) AS amount
                           FROM orders WHERE order_id < ? GROUP BY cust_id) o
                   JOIN   customers c ON o.cust_id = c.cust_id
                   GROUP BY c.region
                   ORDER BY c.region""",
                (bound,),
            ).fetchall()
        return rows

    def check(self, state: Dict[str, Any], out: Dict[str, Any]) -> List[str]:
        problems = []
        expected = self.expected
        seen = set()
        for i, q in enumerate(out["queries"]):
            bound = q["bound"]
            if not _rows_match(q["rows"], expected[bound]):
                problems.append(f"{self.name}: query {i} (order_id < {bound})"
                                f" rows differ from sqlite3")
            if bound in seen and (q["hits"] < 1 or q["pruned"] < 1):
                problems.append(
                    f"{self.name}: warm query {i} hit {q['hits']}x and pruned"
                    f" {q['pruned']} partitions; both must be > 0"
                )
            seen.add(bound)
        return problems


def _rows_match(got, want) -> bool:
    if len(got) != len(want):
        return False
    for (region, revenue), (want_region, want_revenue) in zip(got, want):
        # sqlite sums in another order: equal to float rounding only.
        if region != want_region or not math.isclose(
            revenue, want_revenue, rel_tol=1e-9, abs_tol=1e-6
        ):
            return False
    return True


WORKLOADS = {
    cls.name: cls for cls in (Sweep, ShuffleSweep, KMeansRun, SQLRepeat)
}
