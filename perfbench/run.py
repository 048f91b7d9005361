"""The repository benchmark: four CHOPPER workloads, end to end and per layer.

Usage (from the repository root)::

    python3 perfbench/run.py --workload wordcount-sweep --seed 1 \
        --seconds 10 --trace 0

Workloads: ``wordcount-sweep``, ``shuffle-sweep``, ``kmeans-run`` and
``sql-repeat`` (see ``workloads.py`` and ``BENCHMARK.json`` for why each
one is there). The benchmark is a closed loop: one driver process runs
one job at a time. It first runs one untimed warm-up job, the reference
every later job's outputs must equal (for ``shuffle-sweep`` the warm-up
runs serially, so the pooled jobs are checked against ``jobs=1``), then
repeats the job until ``--seconds`` have passed, and at least
``MIN_JOBS`` times. Every job's outputs are checked against an oracle
outside the timed region. With ``--trace 0``, the time to import
``repro`` in a fresh interpreter is sampled after every other job, so
those samples spread over the whole run like the jobs do.

Times are rescaled to a reference host speed (see ``speed.py``): a
shared host's neighbours slow the CPU down in bursts that no statistic
over whole jobs can tell from a slower program. Every untraced job and
job set-up runs under ``speed.SpeedSampler``, which times a fixed
pure-Python probe from a timer signal while the block runs (for
``shuffle-sweep`` the driver probes while it waits on its pool workers,
on the same cores); each import is bracketed by probe bursts. A time is
rescaled by the mean of its probes. The raw walls are printed on the
``host`` line beside the rescaled ones.

``--trace 0`` prints the end-to-end metrics:

* ``job_s`` — median seconds of a job at the reference host speed, from
  its first call into ``repro`` to its result;
* ``setup_s`` — median seconds to import ``repro`` in a fresh
  interpreter, plus the median time to build a job's conf, cluster,
  runner and output files, both at the reference host speed;
* ``peak_rss_mb`` — peak resident memory of the driver and of every
  child it waited for, pool workers included;
* ``sim_s`` / ``sim_shuffle_mb`` — simulated seconds and virtual shuffle
  MB of the job's final measured run (summed over the query sequence for
  ``sql-repeat``); deterministic for a seed.

``--trace 1`` alternates traced and untraced jobs and prints the
per-layer metrics of ``layers.py``, averaged per traced job, plus
``trace.overhead_ratio`` (median traced / median untraced job wall).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A job fails when
it raises, when an oracle or guard rejects it, or when its outputs differ
from the warm-up job's; the failed fraction is ``failed / attempted``.
The exit code is 0 whenever that line is printed, and 2 when the
benchmark cannot run at all (no ``repro`` sources next to it).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from speed import SpeedSampler, scaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_JOBS = 3
# Fresh-interpreter import samples per run, at least; one more is taken
# after every other job.
IMPORT_SAMPLES = 5
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); "
    "import repro.chopper, repro.workloads, repro.relational, repro.obs; "
    "print(time.perf_counter() - t)"
)

END_TO_END = {
    "job_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_s": "s",
    "sim_shuffle_mb": "MB",
}


def import_repro() -> None:
    """Put this checkout's ``src`` first on the path and import ``repro``.

    Exits with code 2 when the sources are missing or ``repro`` resolves
    to some other copy: the benchmark measures this checkout or nothing.
    """
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import repro from {SRC}: {exc}", file=sys.stderr)
        sys.exit(2)
    origin = Path(repro.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        print(f"perfbench: repro resolved to {origin}, not under {SRC}",
              file=sys.stderr)
        sys.exit(2)


def import_seconds(sampler: SpeedSampler) -> Tuple[float, float]:
    """Raw and reference-speed import time of ``repro``, in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    speed = sampler.burst()
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=60, check=True,
    )
    speed += sampler.burst()
    raw = float(proc.stdout.strip().splitlines()[-1])
    return raw, scaled(raw, speed)


def peak_rss_mb() -> float:
    """Peak RSS of the driver or any waited-for child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is KiB on Linux


def cpu_seconds() -> float:
    """User + system CPU of the driver and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def commit() -> str:
    """The checked-out commit, read from ``.git`` without leaving the tree."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def host_facts(seed: int) -> Dict[str, Any]:
    import numpy

    cores = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    return {
        "usable_cores": cores,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": commit(),
        "seed": seed,
    }


class Bench:
    """One benchmark run: the closed job loop and its bookkeeping."""

    def __init__(self, workload, workdir: Path, tracer=None) -> None:
        self.workload = workload
        self.workdir = workdir
        self.tracer = tracer
        self.sampler = SpeedSampler()
        self.attempted = 0
        self.failed = 0
        self.reference: Optional[Any] = None
        # Raw walls of untraced and traced jobs; set-up and untraced job
        # times at the reference host speed.
        self.job_s: List[float] = []
        self.traced_s: List[float] = []
        self.setup_ref_s: List[float] = []
        self.job_ref_s: List[float] = []
        self.last: Optional[Dict[str, Any]] = None

    def run_job(
        self, traced: bool = False, jobs: Optional[int] = None,
        warmup: bool = False,
    ) -> bool:
        """Set up, run, time and check one job; returns whether it passed.

        A warm-up job is checked and becomes the reference, untimed.
        """
        self.attempted += 1
        jobdir = Path(tempfile.mkdtemp(prefix="job-", dir=self.workdir))
        try:
            with self.sampler.measure() as speed:
                t0 = time.perf_counter()
                state = self.workload.setup(jobdir)
                setup = time.perf_counter() - t0
            setup_ref = scaled(setup, speed)
            cpu0 = cpu_seconds()
            if traced:
                out, wall = self.tracer.trace_job(
                    lambda: self.workload.job(state, jobs)
                )
                self.tracer.totals["chopper.parallel.cpu_s"] += cpu_seconds() - cpu0
            else:
                with self.sampler.measure() as speed:
                    t0 = time.perf_counter()
                    out = self.workload.job(state, jobs)
                    wall = time.perf_counter() - t0
                wall_ref = scaled(wall, speed)
            problems = self.workload.check(state, out)
            fingerprint = self.workload.fingerprint(state, out)
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return False
        finally:
            shutil.rmtree(jobdir, ignore_errors=True)
        if self.reference is None:
            self.reference = fingerprint
        elif fingerprint != self.reference:
            problems.append("outputs differ from the warm-up job's")
        for problem in problems:
            print(f"FAILED job {self.attempted}: {problem}", file=sys.stderr)
        if problems:
            self.failed += 1
            return False
        if warmup:
            return True
        self.setup_ref_s.append(setup_ref)
        if traced:
            self.traced_s.append(wall)
        else:
            self.job_s.append(wall)
            self.job_ref_s.append(wall_ref)
        self.last = out
        return True

    def loop(
        self, seconds: float, trace: bool,
        between: Optional[Callable[[], None]] = None,
    ) -> None:
        """Warm-up job, then jobs until ``seconds`` pass (at least MIN_JOBS).

        ``between`` runs after every other job, inside the loop's time.
        """
        self.run_job(jobs=self.workload.reference_jobs, warmup=True)
        if self.workload.reference_jobs is not None:
            # The reference ran another configuration: warm the timed one.
            self.run_job(warmup=True)
        deadline = time.perf_counter() + seconds
        i = 0
        while i < MIN_JOBS or time.perf_counter() < deadline:
            self.run_job(traced=trace and i % 2 == 0)
            i += 1
            if between is not None and i % 2 == 0:
                between()


def end_to_end(
    bench: Bench, imports: List[Tuple[float, float]],
) -> Dict[str, float]:
    last = bench.last
    setup = (
        statistics.median(ref for _, ref in imports)
        + statistics.median(bench.setup_ref_s)
    )
    return {
        "job_s": statistics.median(bench.job_ref_s),
        "setup_s": setup,
        "peak_rss_mb": peak_rss_mb(),
        "sim_s": last["sim_s"],
        "sim_shuffle_mb": last["sim_shuffle_mb"],
    }


def per_layer(bench: Bench) -> Dict[str, float]:
    values = bench.tracer.per_job()
    values["trace.overhead_ratio"] = (
        statistics.median(bench.traced_s) / statistics.median(bench.job_s)
    )
    return values


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size; 'tiny' is for the benchmark's tests")
    args = parser.parse_args(argv)

    import_repro()
    from layers import LAYER_METRICS, LayerTracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")
    workload = WORKLOADS[args.workload](args.seed, args.size)
    scratch = ROOT / ".perfbench_work"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=scratch))
    try:
        tracer = None
        if args.trace:
            spool = workdir / "spool"
            spool.mkdir()
            tracer = LayerTracer(spool)
        bench = Bench(workload, workdir, tracer)
        imports: List[Tuple[float, float]] = []
        if args.trace:
            bench.loop(args.seconds, True)
        else:
            bench.loop(args.seconds, False, between=lambda: imports.append(
                import_seconds(bench.sampler)))
            while len(imports) < IMPORT_SAMPLES:
                imports.append(import_seconds(bench.sampler))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it

    correct = bench.failed == 0 and bool(bench.job_s)
    facts = host_facts(args.seed)
    facts.update(workload=args.workload, jobs=bench.attempted,
                 job_s=[round(s, 4) for s in bench.job_s],
                 job_ref_s=[round(s, 4) for s in bench.job_ref_s],
                 import_s=[round(s, 4) for s, _ in imports],
                 import_ref_s=[round(s, 4) for _, s in imports])
    if args.trace:
        facts["traced_job_s"] = [round(s, 4) for s in bench.traced_s]
        ok, total, expected = tracer.check_sum()
        facts["self_time_sum_s"] = round(total, 6)
        facts["self_time_expected_s"] = round(expected, 6)
        if not ok:
            print(f"FAILED self-times sum to {total:.6f}s, expected "
                  f"{expected:.6f}s", file=sys.stderr)
            correct = False
    print("host " + json.dumps(facts))

    metrics: Dict[str, Dict[str, Any]] = {}
    if bench.job_s and (bench.traced_s or not args.trace):
        values = per_layer(bench) if args.trace else end_to_end(bench, imports)
        units = LAYER_METRICS if args.trace else END_TO_END
        for name, value in values.items():
            metrics[name] = {"value": value, "unit": units[name]}
            print(f"{name:40s} {value:14.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": bench.attempted,
        "failed": bench.failed, "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
