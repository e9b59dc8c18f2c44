"""Run artifacts: the one read API for a finished run.

:class:`RunArtifact` is plain data only -- transaction traces, the
metrics snapshot, the recorded history, per-reason accounting, the
check report -- picklable by construction, and carrying the canonical
config payload + content digest it was produced from.  Every read
accessor (``summary``, ``latencies``, ``throughput_tps``,
``metrics_snapshot()``, ``check_report()``, ``outcome_counts`` and
friends) is defined here, once.

A :class:`~repro.bench.runner.RunResult` *is* a ``RunArtifact``: its
constructor fills these fields when the run finishes, and it adds only
the live handles ``sim``, ``engine`` and ``log``, which pin the whole
simulator object graph.  That graph cannot cross a process boundary,
and holding one per run makes a 500-run sweep balloon, so
:meth:`RunArtifact.from_result` copies the fields and drops the
handles.  ``digest()`` equals ``repro.bench.digest.run_digest`` of the
originating result, which is how the parallel-equals-serial tests pin
byte-identity.
"""

from array import array

from repro.sim.stats import summarize
from repro.telemetry import snapshot_node_slice, snapshot_rollup

#: Bump when the pickled layout changes; part of the cache key.
ARTIFACT_SCHEMA_VERSION = 1


class RunArtifact:
    """The plain-data outcome of one experiment run."""

    __slots__ = (
        "config_data",
        "config_digest",
        "schema_version",
        "warmup_count",
        "final_clock",
        "dispatch_count",
        "all_traces",
        "metrics",
        "event_jsonl",
        # Per-reason per-attempt aborts, and transactions that never
        # committed (per reason and in total).
        "abort_counts",
        "failed_counts",
        "failed_txns",
        # Injected-fault totals; empty when the run had no fault plan.
        "fault_counts",
        # Exact per-outcome totals and the bounded (txn_id, type,
        # outcome) listing; None when the run had check=False.
        "outcome_counts",
        "txn_outcomes",
        "check_violations",
        "history",
        "cluster_stats",
    )

    def __init__(self, **fields):
        self.schema_version = ARTIFACT_SCHEMA_VERSION
        for name in RunArtifact.__slots__:
            if name == "schema_version":
                continue
            setattr(self, name, fields.pop(name))
        if fields:
            raise TypeError("unknown artifact fields: %s" % sorted(fields))

    @classmethod
    def from_result(cls, result):
        """The plain-data artifact of a finished run, without live handles.

        A field copy: the metrics snapshot and the oracle verdict were
        computed once, when the run finished, and are shared here.
        """
        artifact = object.__new__(RunArtifact)
        for name in RunArtifact.__slots__:
            setattr(artifact, name, getattr(result, name))
        return artifact

    # -- config ---------------------------------------------------------

    @property
    def config(self):
        """The :class:`ExperimentConfig` rebuilt from the canonical form."""
        from repro.exec.schema import from_dict

        return from_dict(self.config_data)

    # -- the measurement set ------------------------------------------

    @property
    def traces(self):
        """Committed, post-warmup traces (the measurement set)."""
        return [
            t
            for t in self.all_traces
            if t.committed and t.txn_id >= self.warmup_count
        ]

    @property
    def committed_count(self):
        """Committed transactions across the whole run (warmup included)."""
        return sum(1 for t in self.all_traces if t.committed)

    @property
    def latencies(self):
        # Packed doubles, not a list of boxed floats: a large sweep's
        # latency vectors are 3-4x smaller and feed numpy zero-copy.
        return array("d", (t.latency for t in self.traces))

    def latencies_of(self, txn_type):
        return array(
            "d", (t.latency for t in self.traces if t.txn_type == txn_type)
        )

    @property
    def summary(self):
        return summarize(self.latencies)

    @property
    def throughput_tps(self):
        """Completed transactions per second of virtual time."""
        traces = self.traces
        if not traces:
            return 0.0
        span = max(t.end for t in traces) - min(t.birth for t in traces)
        if span <= 0:
            return 0.0
        return len(traces) / (span / 1_000_000.0)

    # -- telemetry ------------------------------------------------------

    def metrics_snapshot(self):
        """The metrics report captured at the end of the run.

        Empty when the run was configured with ``telemetry=False``.
        """
        return self.metrics

    def event_log_jsonl(self):
        """The structured event log as JSON lines (empty when disabled)."""
        return self.event_jsonl

    def node_metrics_snapshot(self, node_id):
        """One node's slice of the metrics, with the label stripped.

        Clustered runs label every node-side instrument ``{node=<id>}``;
        this filters the snapshot down to one node, keyed by the bare
        instrument name, so per-node reports read exactly like a
        single-node ``metrics_snapshot()``.
        """
        return snapshot_node_slice(self.metrics, node_id)

    def metrics_rollup(self):
        """Cluster-wide totals: labeled instruments merged by base name.

        Counters and gauge values/maxima sum across nodes; histograms
        merge exactly for ``count``/``sum``/``mean``/``min``/``max``
        (quantiles do not compose across sketches, so merged histograms
        omit them).  Unlabeled instruments pass through untouched.
        """
        return snapshot_rollup(self.metrics)

    # -- robustness + correctness accounting ----------------------------

    @property
    def shed_txns(self):
        """Arrivals rejected by the bounded submission queue."""
        return self.failed_counts.get("shed", 0)

    def check_report(self):
        """The oracle verdict, computed once where the run executed.

        ``[]`` means clean; ``None`` when the run had ``check=False``.
        """
        return self.check_violations

    # -- identity -------------------------------------------------------

    def digest(self):
        """SHA-256 over the canonical run payload (= ``run_digest``)."""
        from repro.bench.digest import run_digest

        return run_digest(self)

    def __repr__(self):
        return "<RunArtifact %s n=%d digest=%s...>" % (
            self.config_data.get("engine"),
            len(self.traces),
            self.config_digest[:12],
        )
