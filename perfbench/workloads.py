"""The four benchmark workloads, one per user path.

Each workload builds its inputs from the seed alone (outside every timed
region), then offers three things to :mod:`run`:

* ``setup()`` — one set-up of the program, timed by the workload itself;
* ``measure(seconds, between)`` — repeat the user operation for
  ``seconds`` with tracing off (serve-small and fleet-faults first make
  an untimed warm-up), calling ``between()`` before each repetition
  (``run`` samples set-up time there), and check every output, a
  warm-up's too;
* ``traced(recorder, install)`` — a warm-up, one traced and one untraced
  repetition of the same operation, returning the traced window and the
  workload's own per-layer counts.

All times are host wall-clock seconds of this Python process.  Simulated
quantities (GPU utilization, fleet makespan) are outputs to check, never
performance.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import PreprocessJob, Scenario
from repro.api import minibatch_digest
from repro.errors import ReproError, ServeError
from repro.exec.executor import ShardRunStats
from repro.faults import FaultInjector, FaultPlan, FaultRule
from repro.features.specs import MODEL_NAMES
from repro.features.synthetic import SyntheticTableGenerator
from repro.fleet import FleetSimulator, default_pools, generate_trace
from repro.serve.service import PreprocessService

from tracing import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space inside the checkout (spools, span dumps); git-ignored
OUT_DIR = os.path.join(HERE, ".out")


@dataclass
class Measured:
    """What one untraced measurement saw."""

    attempted: int = 0
    failed: int = 0
    items: float = 0.0  # work units completed (scenarios, rows, jobs)
    busy_s: float = 0.0  # host seconds the throughput is taken over
    latencies_ms: List[float] = field(default_factory=list)
    #: the latencies split by round; when set, the tail is taken per round
    rounds_ms: List[List[float]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        return self.items / self.busy_s if self.busy_s > 0 else 0.0

    def tail(self):
        """(value, label, n) of latency_tail_ms: :func:`tail` of all the
        latencies, or with rounds the median of the rounds' tails, so one
        round that a burst of the host's load hit does not set the tail."""
        if not self.rounds_ms:
            return tail(self.latencies_ms)
        tails = [tail(values) for values in self.rounds_ms]
        label = f"the median over {len(tails)} rounds of the round's {tails[0][1]}"
        value = statistics.median(value for value, _, _ in tails)
        return value, label, len(self.latencies_ms)


@dataclass
class Traced:
    """One traced and one untraced repetition of the same operation."""

    untraced_wall_s: float
    start: float  # traced window, perf_counter seconds
    end: float
    attempted: int
    failed: int
    metrics: Dict[str, float]


def _timed(fn: Callable[[], object]):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def tail(values: List[float]):
    """(value, label, n): the highest percentile with at least ten samples
    beyond it; below 100 samples, with at least a tenth of them (and at
    least one) beyond it, so the tail stays near p90 instead of falling
    below it (with 11 samples ten beyond would be p9); the maximum only
    for one or two samples.  The batch workloads run 3-15 multi-second
    operations, and their maximum is whichever one a burst of load from
    the host's neighbours hit."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 2:  # one sample beyond would leave the lower of two
        return ordered[-1], "max", n
    beyond = max(1, min(10, n // 10))
    rank = n - beyond  # 1-based rank with exactly `beyond` samples above it
    return ordered[rank - 1], f"p{100.0 * rank / n:.1f}", n


# -- des-sweep -------------------------------------------------------------------


def run_result_digest(result) -> str:
    """Digest of every RunResult field but the scenario (the input)."""
    record = result.to_dict()
    record.pop("scenario")
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


class DesSweep:
    """``Scenario.run()`` over RM1-RM5 x {Disagg, PreSto} at 8 GPUs."""

    name = "des-sweep"

    def __init__(self, seed: int, reference: Dict[str, str],
                 models=tuple(MODEL_NAMES), systems=("Disagg", "PreSto")) -> None:
        self.reference = reference
        self.grid = [(model, system) for model in models for system in systems]
        # the simulation is deterministic; the seed orders the sweep
        random.Random(seed).shuffle(self.grid)
        self.seed = seed

    def _scenarios(self) -> List[Scenario]:
        return [Scenario(model=m, system=s, num_gpus=8, seed=self.seed)
                for m, s in self.grid]

    def setup(self) -> float:
        seconds, _ = _timed(
            lambda: [sc.build_system() for sc in self._scenarios()]
        )
        return seconds

    def _sweep(self, out: Measured) -> List:
        results = []
        for scenario in self._scenarios():
            out.attempted += 1
            try:
                result = scenario.run()
            except ReproError as exc:
                out.failed += 1
                out.notes.append(f"{scenario.label}: {exc}")
                continue
            results.append(result)
            if (result.scenario != scenario
                    or run_result_digest(result) != self.reference.get(scenario.label)):
                out.failed += 1
                out.notes.append(f"{scenario.label}: digest differs from reference")
        return results

    def measure(self, seconds: float, between: Callable[[], None] = lambda: None) -> Measured:
        # no warm-up: a first sweep is within a few percent of the next ones,
        # and one would add a whole sweep to every run
        out = Measured()
        while out.busy_s < seconds or not out.latencies_ms:
            between()
            wall, _ = _timed(lambda: self._sweep(out))
            out.busy_s += wall
            out.items += len(self.grid)
            out.latencies_ms.append(wall * 1000.0)
        return out

    def traced(self, recorder: Recorder, install) -> Traced:
        out = Measured()
        self._sweep(out)  # warm-up, so neither timed sweep pays first-run costs
        with install(recorder):
            start = time.perf_counter()
            traced = self._sweep(out)
            end = time.perf_counter()
        untraced_wall, _ = _timed(lambda: self._sweep(out))
        return Traced(
            untraced_wall_s=untraced_wall, start=start, end=end,
            attempted=out.attempted, failed=out.failed,
            metrics={"sim.batches": sum(r.num_batches for r in traced)},
        )


# -- preprocess-rm5 ---------------------------------------------------------------


class PreprocessRm5:
    """``ShardExecutor.run()`` on one RM5 job, the default parallel path."""

    name = "preprocess-rm5"

    def __init__(self, seed: int, num_rows: int = 16384, num_shards: int = 8) -> None:
        self.job = PreprocessJob(model="RM5", num_rows=num_rows,
                                 num_shards=num_shards,
                                 processes=len(os.sched_getaffinity(0)),
                                 seed=seed)
        self.data = SyntheticTableGenerator(self.job.spec(), seed=seed).generate(
            num_rows
        )
        self.executor = self.job.build_executor()
        self.reference = minibatch_digest(
            self.executor.run_batches(self.data, parallel=False)
        )

    def setup(self) -> float:
        seconds, _ = _timed(self.job.build_executor)
        return seconds

    def _run(self, parallel: bool):
        """(wall, rows, digest) of one run; the batches are dropped before
        the next run, so every pool forks from the same parent heap."""
        wall, results = _timed(lambda: self.executor.run(self.data, parallel=parallel))
        return wall, sum(r.counts.rows for r in results), minibatch_digest(
            [r.batch for r in results]
        )

    def measure(self, seconds: float, between: Callable[[], None] = lambda: None) -> Measured:
        out = Measured()
        while out.busy_s < seconds or not out.latencies_ms:
            between()
            out.attempted += 1
            wall, rows, digest = self._run(parallel=True)
            if digest != self.reference:
                out.failed += 1
                out.notes.append("parallel digest differs from the serial one")
            out.busy_s += wall
            out.items += rows
            out.latencies_ms.append(wall * 1000.0)
        return out

    def traced(self, recorder: Recorder, install) -> Traced:
        parallel_wall, _, parallel_digest = self._run(parallel=True)
        serial_wall, _, serial_digest = self._run(parallel=False)
        # the traced run is serial so every layer runs in this process
        with install(recorder):
            start = time.perf_counter()
            results = self.executor.run(self.data, parallel=False)
            end = time.perf_counter()
        traced_digest = minibatch_digest([r.batch for r in results])
        digests = (parallel_digest, serial_digest, traced_digest)
        stats = ShardRunStats.from_results(results)
        return Traced(
            untraced_wall_s=serial_wall, start=start, end=end,
            attempted=len(digests),
            failed=sum(d != self.reference for d in digests),
            metrics={
                "exec.ipc.s": parallel_wall - serial_wall,
                "dataio.file_bytes": stats.file_bytes,
                "dataio.bytes_read": stats.bytes_read,
                "ops.transform_elements": stats.transform_elements,
            },
        )


# -- serve-small -------------------------------------------------------------------


class ServeSmall:
    """An in-process service fed small RM1 jobs in rounds: an open-loop
    segment at a fixed offered rate, then a burst under backpressure.

    Rounds repeat the same distinct job specs (every run regenerates the
    rows from the job's seed, so nothing is cached), which keeps the
    serial reference digests to one computation per spec.  Spreading the
    bursts over the whole run, instead of one burst at the end, samples
    the host's speed the same way for every metric; a fresh service per
    round keeps rounds alike however many fit in the run.
    """

    name = "serve-small"

    #: jobs per round: the burst is twice the default queue capacity, so the
    #: block policy pushes back on the submitter
    OPEN_JOBS, BURST_JOBS = 27, 32

    def __init__(self, seed: int, rate: float) -> None:
        self.rate = rate
        jobs = [PreprocessJob(model="RM1", num_rows=256, seed=seed * 1000 + i)
                for i in range(self.OPEN_JOBS + self.BURST_JOBS)]
        self.open_jobs = jobs[:self.OPEN_JOBS]
        self.burst_jobs = jobs[self.OPEN_JOBS:]
        self._references: Dict[int, str] = {}
        self._spools = 0

    def _service(self) -> PreprocessService:
        self._spools += 1
        spool = os.path.join(OUT_DIR, f"spool-{os.getpid()}-{self._spools}")
        shutil.rmtree(spool, ignore_errors=True)
        # the `repro serve` defaults: block policy, 2 workers, fsync'd index
        return PreprocessService(spool_dir=spool, num_workers=2, index_fsync=True)

    @staticmethod
    def _dispose(service: PreprocessService) -> None:
        service.stop(drain=True, timeout=60.0)
        shutil.rmtree(service.spool_dir, ignore_errors=True)

    def setup(self) -> float:
        service = self._service()
        try:
            seconds, _ = _timed(service.start)
        finally:
            self._dispose(service)
        return seconds

    def reference(self, job: PreprocessJob) -> str:
        if job.seed not in self._references:
            self._references[job.seed] = job.run(parallel=False).digest
        return self._references[job.seed]

    def _round(self, service: PreprocessService, seen: Dict) -> None:
        """One open-loop segment, then one burst; appends to ``seen``."""
        # open loop: job i is due at t0 + i / rate, whatever came before
        due: Dict[str, float] = {}
        t0 = time.time() + 0.02
        for i, job in enumerate(self.open_jobs):
            when = t0 + i / self.rate
            pause = when - time.time()
            if pause > 0:
                time.sleep(pause)
            seen["lags"].append(time.time() - when)
            try:
                due[service.submit(job).job_id] = when
            except ServeError:
                seen["rejected"] += 1
        latencies = []
        for job_id, when in due.items():
            record = service.wait(job_id, timeout=120.0)
            seen["open"].append(record)
            if record.completed_at is not None:
                latencies.append(1000.0 * (record.completed_at - when))
        seen["latencies_ms"].extend(latencies)
        seen["rounds_ms"].append(latencies)
        # burst: everything at once; the block policy pushes back
        ids = []
        start = time.time()
        for job in self.burst_jobs:
            try:
                ids.append(service.submit(job).job_id)
            except ServeError:
                seen["rejected"] += 1
        records = [service.wait(job_id, timeout=120.0) for job_id in ids]
        seen["burst"].extend(records)
        seen["burst_jobs"] += len(records)
        seen["burst_s"] += max([r.completed_at or start for r in records] + [start]) - start

    def _run_rounds(self, rounds: Optional[int] = None, seconds: float = 0.0,
                 between: Callable[[], None] = lambda: None) -> Dict:
        """``rounds`` rounds, or as many as fit in ``seconds``, each against
        a fresh service, so a round never inherits an earlier round's
        index history.  ``between`` runs before each round."""
        seen = {"open": [], "burst": [], "lags": [], "latencies_ms": [],
                "rounds_ms": [], "rejected": 0, "burst_jobs": 0, "burst_s": 0.0,
                "rounds": 0, "compactions": 0}
        started = time.perf_counter()
        while not seen["rounds"] or (
            seen["rounds"] < rounds if rounds is not None
            else time.perf_counter() - started < seconds
        ):
            between()
            service = self._service().start()
            try:
                self._round(service, seen)
                seen["compactions"] += service.index.compactions
            finally:
                self._dispose(service)
            seen["rounds"] += 1
        return seen

    def _check(self, seen: Dict, out: Measured) -> None:
        out.attempted += seen["rounds"] * (len(self.open_jobs) + len(self.burst_jobs))
        out.failed += seen["rejected"]
        for record in seen["open"] + seen["burst"]:
            if record.state != "completed" or record.digest != self.reference(record.job):
                out.failed += 1
                out.notes.append(f"{record.job_id}: {record.state} {record.error or ''}")

    def measure(self, seconds: float, between: Callable[[], None] = lambda: None) -> Measured:
        warm_up = self._run_rounds(rounds=1)
        seen = self._run_rounds(seconds=seconds, between=between)
        out = Measured(latencies_ms=seen["latencies_ms"], rounds_ms=seen["rounds_ms"],
                       items=seen["burst_jobs"], busy_s=seen["burst_s"])
        self._check(warm_up, out)
        self._check(seen, out)
        out.notes.append(
            f"a warm-up round, then {seen['rounds']} rounds of "
            f"{len(self.open_jobs)} open-loop jobs at {self.rate:g} jobs/s + a {len(self.burst_jobs)}-job burst; "
            f"generator lag max {1000.0 * max(seen['lags']):.2f} ms"
        )
        return out

    def traced(self, recorder: Recorder, install) -> Traced:
        rounds = 3
        out = Measured()
        self._check(self._run_rounds(rounds=1), out)  # warm-up
        with install(recorder):
            start = time.perf_counter()
            seen = self._run_rounds(rounds=rounds)
            end = time.perf_counter()
        untraced_wall, plain = _timed(lambda: self._run_rounds(rounds=rounds))
        self._check(seen, out)
        self._check(plain, out)
        records = [r for r in seen["open"] + seen["burst"] if r.state == "completed"]
        stage_s = {stage: 0.0 for stage in ("generate", "partition", "extract", "transform")}
        overhead_ms = []
        for record in records:
            staged = 0.0
            for event in record.stages:
                if event.status == "completed" and event.elapsed_s is not None:
                    stage_s[event.stage] = stage_s.get(event.stage, 0.0) + event.elapsed_s
                    staged += event.elapsed_s
            overhead_ms.append(1000.0 * (record.completed_at - record.started_at - staged))
        opened = [r for r in seen["open"] if r.state == "completed"]
        queue_wait = [1000.0 * (r.started_at - r.submitted_at) for r in opened]
        metrics = {
            "serve.queue_wait_ms.p50": statistics.median(queue_wait),
            "serve.queue_wait_ms.tail": tail(queue_wait)[0],
            "serve.run_ms.p50": statistics.median(
                1000.0 * (r.completed_at - r.started_at) for r in opened
            ),
            "serve.overhead_ms.p50": statistics.median(overhead_ms),
            "serve.index.bytes": recorder.counters.get("serve.index.bytes", 0),
            "serve.index.compactions": seen["compactions"],
            "serve.retries": sum(r.attempts - 1 for r in records),
            "serve.rejected": seen["rejected"],
            "loadgen.lag_ms.max": 1000.0 * max(seen["lags"]),
        }
        for stage, seconds in stage_s.items():
            metrics[f"serve.stage.{stage}.s"] = seconds
        return Traced(untraced_wall_s=untraced_wall, start=start, end=end,
                      attempted=out.attempted, failed=out.failed, metrics=metrics)


# -- fleet-faults ---------------------------------------------------------------------

#: per-node, per-fault-epoch fire rates.  node-down is kept low enough that
#: a displaced job is rarely hit again, so a day finishes within a few
#: simulated days instead of thrashing (the CLI's 1% livelocks big jobs).
NODE_DOWN_RATE = 0.0005
SLOW_NODE_RATE = 0.05


class FleetFaults:
    """``FleetSimulator.run`` on seeded diurnal days with a fault plan.

    Every day of a run is a different one made from its seed, so the
    run's statistics are taken over several draws of the trace and the
    faults instead of hanging on a few."""

    name = "fleet-faults"

    def __init__(self, seed: int, num_jobs: int = 1000) -> None:
        self.seed = seed
        self.num_jobs = num_jobs
        self._days: Dict[int, tuple] = {}

    def day_inputs(self, day: int):
        """(trace, plan) of day ``day``, both seeded ``1000 * seed + day``;
        made on first use, outside every timed region."""
        if day not in self._days:
            day_seed = 1000 * self.seed + day
            plan = FaultPlan(seed=day_seed, rules=(
                FaultRule(point="node-down", rate=NODE_DOWN_RATE),
                FaultRule(point="slow-node", rate=SLOW_NODE_RATE, delay_s=300.0),
            ))
            self._days[day] = (generate_trace("diurnal", num_jobs=self.num_jobs,
                                              seed=day_seed), plan)
        return self._days[day]

    @staticmethod
    def _simulator(trace, plan) -> FleetSimulator:
        # a fresh injector per day: it keeps that day's fire audit
        return FleetSimulator(trace, pools=default_pools(), policy="priority",
                              autoscaler="target-utilization",
                              injector=FaultInjector(plan))

    def setup(self) -> float:
        seconds, _ = _timed(lambda: self._simulator(*self.day_inputs(0)))
        return seconds

    @staticmethod
    def check(result, num_arrivals: int) -> List[str]:
        """Problems with a fleet day's result; empty when it holds up."""
        problems = []
        if not result.all_terminal() or result.num_jobs != num_arrivals:
            problems.append("not every job is terminal")
        if result.completed + result.rejected != result.num_jobs:
            problems.append("completed + rejected != jobs")
        problems += [f"{job.job_id}: reschedules != displacements"
                     for job in result.jobs if job.reschedules != job.displacements]
        return problems

    def _day(self, day: int, out: Measured):
        trace, plan = self.day_inputs(day)
        simulator = self._simulator(trace, plan)
        out.attempted += 1
        wall, result = _timed(simulator.run)
        problems = self.check(result, len(trace))
        if problems:
            out.failed += 1
            out.notes.extend(problems[:5])
        return wall, result

    def measure(self, seconds: float, between: Callable[[], None] = lambda: None) -> Measured:
        """Days 0, 1, 2, ... until ``seconds`` have passed, after an untimed
        warm-up on day 0 that the timed day 0 must replay to the digest."""
        out = Measured()
        _, warm_up = self._day(0, out)
        day = 0
        while out.busy_s < seconds or not out.latencies_ms:
            between()
            wall, result = self._day(day, out)
            if day == 0 and result.digest != warm_up.digest:
                out.failed += 1
                out.notes.append("a replay of day 0 changed its digest")
            out.busy_s += wall
            out.items += result.num_jobs
            out.latencies_ms.append(wall * 1000.0)
            day += 1
        out.notes.append(f"{day} distinct days of {self.num_jobs} jobs")
        return out

    def traced(self, recorder: Recorder, install) -> Traced:
        out = Measured()
        self._day(0, out)  # warm-up
        with install(recorder):
            start = time.perf_counter()
            _, result = self._day(0, out)
            end = time.perf_counter()
        untraced_wall, plain = self._day(0, out)
        out.attempted += 1
        if result.digest != plain.digest:
            out.failed += 1
            out.notes.append("traced fleet digest differs from the untraced one")
        return Traced(
            untraced_wall_s=untraced_wall, start=start, end=end,
            attempted=out.attempted, failed=out.failed,
            metrics={
                "faults.fires": sum(result.fault_fires.values()),
                "fleet.displacements": result.displacements,
                "fleet.reschedules": result.reschedules,
            },
        )
