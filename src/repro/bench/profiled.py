"""The adapter that lets TProfiler drive full engine runs.

TProfiler's loop needs a system it can re-run with different
instrumented subsets (Section 3.1); :class:`EngineProfiledSystem` wraps
an :class:`~repro.bench.runner.ExperimentConfig` so every profiler
iteration is a fresh, deterministic simulation differing only in which
functions carry probes.

Runs go through the execution layer (:mod:`repro.exec`): each call
builds the derived config and hands it to an
:class:`~repro.exec.executor.Executor`, so independent batches — the
:class:`~repro.core.profiler.NaiveProfiler`'s budget groups — fan out
across a process pool with ``jobs > 1`` while the refinement loop's
inherently sequential iterations run inline.  The adapter keeps
:class:`~repro.exec.artifact.RunArtifact` objects: the same read API
as a ``RunResult`` without its live simulator graph, so long profiling
sessions stay light.
"""

from repro.core.profiler import ProfiledSystem
from repro.bench.runner import engine_callgraph
from repro.exec.executor import Executor


class EngineProfiledSystem(ProfiledSystem):
    """Profile any engine/workload combination.

    ``jobs`` (or an explicit ``executor``) controls how batched runs
    fan out; single runs always execute inline regardless.
    """

    def __init__(self, config, executor=None, jobs=1):
        self.config = config
        self.callgraph = engine_callgraph(config.engine)
        self.executor = executor if executor is not None else Executor(jobs=jobs)
        self.runs = []

    def _probed(self, instrumented, probe_cost):
        return self.config.replaced(
            instrumented=frozenset(instrumented), probe_cost=probe_cost
        )

    def run(self, instrumented, probe_cost):
        artifact = self.executor.run_one(self._probed(instrumented, probe_cost))
        self.runs.append(artifact)
        # Hand the profiler only the measurement set (committed,
        # post-warmup), packaged as a TransactionLog-alike.
        return _FilteredLog(artifact)

    def run_many(self, batches, probe_cost):
        configs = [self._probed(batch, probe_cost) for batch in batches]
        artifacts = self.executor.run(configs)
        self.runs.extend(artifacts)
        return [_FilteredLog(artifact) for artifact in artifacts]


class _FilteredLog:
    """TransactionLog facade over a run's post-warmup committed traces."""

    def __init__(self, result):
        self.traces = result.traces

    def latencies(self, txn_type=None):
        return [
            t.latency
            for t in self.traces
            if txn_type is None or t.txn_type == txn_type
        ]

    def __len__(self):
        return len(self.traces)
