"""The benchmark's four workloads and the executor they run through.

Every workload is one *user action*: a function of ``(seed, executor)``
that drives the program through the same two public calls the
``repro.exec`` layer makes per run -- ``run_experiment(config,
simulator_cls=...)`` then ``RunArtifact.from_result(result)`` -- and
returns anything the parent compares across repeats (the profiler's
ranked factor list).

:class:`TimedSimulator` records when ``Simulator.run`` is entered and
when it returns, which splits each run into setup, simulation and
finish without touching virtual time: the subclass adds no event, no
yield and no random draw, so its runs have the production digests
(the golden pre-flight in ``run.py`` checks exactly that).
"""

import time
from functools import partial

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest
from repro.bench.profiled import EngineProfiledSystem
from repro.bench.runner import ExperimentConfig, run_experiment
from repro.core.profiler import TProfiler
from repro.exec.artifact import RunArtifact
from repro.replication import ReplicationConfig
from repro.sim.kernel import Simulator

clock = time.monotonic

#: Transactions per simulated run, per workload.  One action at these
#: sizes takes 2-5 host seconds on a 2-CPU container.
SIZES = {
    "tpcc-mysql": 2000,
    "profile-2wh": 300,
    "cluster-2pc-repl": 1000,
    "tpcc-pg-volt": 3000,
}


class TimedSimulator(Simulator):
    """The production kernel, plus host timestamps around ``run()``.

    ``recorder`` (a :class:`spans.SpanRecorder`, or None) turns the
    boundaries into the ``setup`` -> ``sim`` -> ``finish`` phase spans.
    """

    run_entered = None
    run_returned = None

    def __init__(self, telemetry=None, faults=None, recorder=None):
        super().__init__(telemetry=telemetry, faults=faults)
        self.recorder = recorder

    def run(self, until=None):
        recorder = self.recorder
        if self.run_entered is None:
            self.run_entered = clock()
            if recorder is not None:
                recorder.close()  # setup
                recorder.open("sim")
        try:
            return super().run(until)
        finally:
            self.run_returned = clock()
            if recorder is not None:
                recorder.close()  # sim
                recorder.open("finish")


class RunRecord:
    """One simulated run: its artifact-derived checks and host phases."""

    __slots__ = ("digest", "counts", "problems",
                 "setup_s", "sim_s", "finish_s", "artifact")

    def as_dict(self):
        return {name: getattr(self, name) for name in self.__slots__
                if name != "artifact"}


class BenchExecutor:
    """An ``Executor`` stand-in for ``EngineProfiledSystem.run``.

    ``run_one`` runs one config at a time in this process -- never a
    pool -- and keeps a :class:`RunRecord` per run.  ``keep_artifacts``
    holds on to each artifact (the traced passes pickle them afterwards
    to size them); the timed pass drops them once they are checked.
    """

    def __init__(self, recorder=None, keep_artifacts=False):
        self.recorder = recorder
        self.keep_artifacts = keep_artifacts
        self.records = []
        self._simulator_cls = partial(TimedSimulator, recorder=recorder)

    def run_one(self, config):
        recorder = self.recorder
        if recorder is not None:
            recorder.run_id = len(self.records)
            recorder.open("run")
            recorder.open("setup")
        entered = clock()
        result = run_experiment(config, simulator_cls=self._simulator_cls)
        sim = result.sim
        artifact = RunArtifact.from_result(result)
        del result
        record = check_run(config, artifact)
        done = clock()
        if recorder is not None:
            recorder.close()  # finish
            recorder.close()  # run
        record.setup_s = sim.run_entered - entered
        record.sim_s = sim.run_returned - sim.run_entered
        record.finish_s = done - sim.run_returned
        record.artifact = artifact if self.keep_artifacts else None
        self.records.append(record)
        return artifact


def _sum_matching(counters, prefix, suffix):
    return sum(value for name, value in counters.items()
               if name.startswith(prefix) and name.endswith(suffix))


def run_counts(artifact):
    """The run's exact totals that the per-layer count metrics divide."""
    counters = artifact.metrics_rollup().get("counters", {})
    cluster = artifact.cluster_stats or {}
    history = artifact.history
    return {
        "committed": artifact.committed_count,
        "dispatches": artifact.dispatch_count,
        "spawns": counters.get("sim.spawns", 0),
        "lock_requests": counters.get("lockmgr.requests", 0),
        "lock_waits": counters.get("lockmgr.waits", 0),
        "page_hits": counters.get("buf_pool.hits", 0),
        "page_misses": counters.get("buf_pool.misses", 0),
        "evictions": counters.get("buf_pool.evictions", 0),
        "flush_rounds": _sum_matching(counters, "wal.", ".flush_rounds"),
        "single_home": cluster.get("single_home_txns", 0),
        "cross_shard": cluster.get("cross_shard_txns", 0),
        "net_messages": _sum_matching(counters, "net.", ".messages"),
        "repl_acks": _sum_matching(counters, "repl.", ".acks"),
        "replica_reads": counters.get("cluster.replica_reads", 0),
        "ops_recorded": (
            sum(len(txn.ops) for txn in history.txns) if history else 0
        ),
    }


def check_run(config, artifact):
    """Per-run output checks; ``problems`` lists every one that failed."""
    record = RunRecord()
    record.digest = run_digest(artifact)
    record.counts = run_counts(artifact)
    problems = []
    if record.counts["committed"] == 0:
        problems.append("no transaction committed")
    outcomes = artifact.outcome_counts
    if outcomes is not None and sum(outcomes.values()) != config.n_txns:
        problems.append("outcome_counts sum to %d, not n_txns=%d"
                        % (sum(outcomes.values()), config.n_txns))
    violations = artifact.check_report()
    if violations:
        problems.append("check_report: %d violation(s), first %r"
                        % (len(violations), violations[0]))
    record.problems = problems
    return record


# -- the workloads ------------------------------------------------------

def tpcc_mysql(seed, executor):
    executor.run_one(pc.mysql_128wh_experiment(
        "VATS", seed=seed, n_txns=SIZES["tpcc-mysql"]))
    return {}


def profile_2wh(seed, executor):
    system = EngineProfiledSystem(
        pc.mysql_2wh_experiment(seed=seed, n_txns=SIZES["profile-2wh"]),
        executor=executor,
    )
    profiler = TProfiler(system, k=5, max_iterations=10)
    recorder = executor.recorder
    if recorder is not None:
        recorder.open("TProfiler.profile")
    result = profiler.profile()
    if recorder is not None:
        recorder.close()
    return {"factors": [[row.name, row.site] for row in result.factors]}


def cluster_config(seed):
    """4-shard MySQL TPC-C: 2PC, one semi-sync replica per shard, checked."""
    workload_kwargs = pc.tpcc_contended_kwargs()
    workload_kwargs["remote_payment_prob"] = 0.15
    return ExperimentConfig(
        engine="mysql",
        workload="tpcc",
        workload_kwargs=workload_kwargs,
        engine_config=pc.mysql_128wh("VATS"),
        seed=seed,
        n_txns=SIZES["cluster-2pc-repl"],
        rate_tps=pc.RATE_TPS,
        num_shards=4,
        replicas=1,
        replication=ReplicationConfig(mode="semi_sync",
                                      read_policy="replica_ok"),
        check=True,
    )


def cluster_2pc_repl(seed, executor):
    executor.run_one(cluster_config(seed))
    return {}


def tpcc_pg_volt(seed, executor):
    n_txns = SIZES["tpcc-pg-volt"]
    executor.run_one(pc.postgres_experiment(seed=seed, n_txns=n_txns))
    executor.run_one(pc.voltdb_experiment(n_workers=2, seed=seed,
                                          n_txns=n_txns))
    return {}


WORKLOADS = {
    "tpcc-mysql": tpcc_mysql,
    "profile-2wh": profile_2wh,
    "cluster-2pc-repl": cluster_2pc_repl,
    "tpcc-pg-volt": tpcc_pg_volt,
}


# -- golden pre-flight --------------------------------------------------

#: The cells of tests/goldens/equivalence_digests.json the pre-flight
#: re-runs, built as scripts/gen_equivalence_goldens.py builds them.
GOLDEN_SEED = 7
GOLDEN_N_TXNS = 250
GOLDEN_CELLS = {
    "mysql/seed7/telemetry-on": lambda: pc.mysql_128wh_experiment(
        "VATS", seed=GOLDEN_SEED, n_txns=GOLDEN_N_TXNS),
    "postgres/seed7/telemetry-on": lambda: pc.postgres_experiment(
        seed=GOLDEN_SEED, n_txns=GOLDEN_N_TXNS),
    "voltdb/seed7/telemetry-on": lambda: pc.voltdb_experiment(
        seed=GOLDEN_SEED, n_txns=GOLDEN_N_TXNS),
}


def golden_mismatches(goldens):
    """Run each golden cell through :class:`BenchExecutor`; list mismatches."""
    executor = BenchExecutor()
    mismatches = []
    for key, make_config in GOLDEN_CELLS.items():
        executor.run_one(make_config().replaced(telemetry=True))
        digest = executor.records[-1].digest
        if goldens.get(key) != digest:
            mismatches.append(key)
    return mismatches
