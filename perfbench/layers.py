"""The layers the traced run splits host time into, and what it wraps.

Each span name is ``<layer>.<what>``; the layer is the repo module the
wrapped callable lives in.  ``batch``, ``telemetry``, ``experiments`` and
``cli`` are out of scope: no workload spends meaningful time there.
"""

from __future__ import annotations

from typing import Tuple

from tracing import Recorder, Target

LAYERS = (
    "api", "core", "sim", "features", "dataio", "ops", "exec", "serve",
    "fleet", "faults",
)


def _journal_bytes(recorder: Recorder, args, kwargs, result) -> None:
    # JsonlJournal.append(self, line): the line lands with one newline
    recorder.count("serve.index.bytes", len(args[1]) + 1)


TARGETS: Tuple[Target, ...] = (
    # api: the declarative front doors
    Target("api.scenario", "repro.api.scenario", "Scenario.run"),
    Target("api.preprocess_job", "repro.api.preprocess", "PreprocessJob.run"),
    Target("api.digest", "repro.api.preprocess", "minibatch_digest"),
    # core: systems, workers, provisioning
    Target("core.make_worker", "repro.core.systems", "PreprocessingSystem.make_worker"),
    Target("core.worker_throughput", "repro.core.systems",
           "PreprocessingSystem.worker_throughput"),
    Target("core.provision_for", "repro.core.systems",
           "PreprocessingSystem.provision_for"),
    # sim: the scenario DES (EndToEndSimulation drives sim.engine)
    Target("sim.run", "repro.core.endtoend", "EndToEndSimulation.run"),
    # features: synthetic raw data and bucket boundaries
    Target("features.generate", "repro.features.synthetic",
           "SyntheticTableGenerator.generate"),
    Target("features.bucket_boundaries", "repro.features.synthetic",
           "SyntheticTableGenerator.bucket_boundaries"),
    # dataio: partition + columnar write/read + column codecs
    Target("dataio.partition", "repro.dataio.partition", "RowPartitioner.partition_all"),
    Target("dataio.write", "repro.dataio.columnar", "ColumnarFileWriter.write"),
    Target("dataio.encode", "repro.dataio.encoding", "encode_column"),
    Target("dataio.extract", "repro.dataio.columnar", "ColumnarFileReader.read_columns"),
    Target("dataio.decode", "repro.dataio.encoding", "decode_column"),
    # ops: the Transform pipeline and its kernels (Figure 5 step names)
    Target("ops.transform", "repro.ops.pipeline", "PreprocessingPipeline.run"),
    Target("ops.bucketize", "repro.ops.bucketize", "Bucketizer.__call__"),
    Target("ops.sigridhash", "repro.ops.sigridhash", "SigridHasher.__call__"),
    Target("ops.log", "repro.ops.lognorm", "log_normalize"),
    Target("ops.fill", "repro.ops.fill", "fill_dense"),
    Target("ops.fill", "repro.ops.fill", "fill_sparse"),
    Target("ops.format_conversion", "repro.ops.format", "to_minibatch"),
    # exec: the shard executor
    Target("exec.run", "repro.exec.executor", "ShardExecutor.run"),
    Target("exec.run_staged", "repro.exec.executor", "ShardExecutor.run_staged"),
    # serve: service front door, queue, pool, index over the journal.
    # WorkerPool._run_one is the one private method wrapped: it is the
    # whole of one job on a worker thread, and no public call spans it.
    Target("serve.submit", "repro.serve.service", "PreprocessService.submit"),
    Target("serve.queue.put", "repro.serve.queue", "BoundedJobQueue.put"),
    Target("serve.pool.job", "repro.serve.pool", "WorkerPool._run_one"),
    Target("serve.index.append", "repro.serve.records", "JobLogIndex.append"),
    Target("serve.journal.append", "repro.journal", "JsonlJournal.append",
           after=_journal_bytes),
    # fleet: trace, placement policy, autoscaler, simulator
    Target("fleet.trace", "repro.fleet.trace", "generate_trace"),
    Target("fleet.simulator", "repro.fleet.simulator", "FleetSimulator.run"),
    Target("fleet.policy", "repro.fleet.policy", "PlacementPolicy.queue_order"),
    Target("fleet.policy", "repro.fleet.policy", "PlacementPolicy.choose_pool"),
    Target("fleet.autoscale", "repro.fleet.autoscale", "Autoscaler.target_nodes"),
    # faults: the injector's probe
    Target("faults.check", "repro.faults.injector", "FaultInjector.check"),
)

#: spans during which the thread waits rather than works: a submitter
#: blocked by queue backpressure.  Their instants count as idle, so they
#: never take a share of the time a worker thread spends computing.
WAIT_SPANS = frozenset({"serve.queue.put"})


def layer_of(span_name: str) -> str:
    return span_name.split(".", 1)[0]
