"""The execution layer: schema, artifacts, executor, cache.

Three properties carry everything:

1. **Canonical serialization round-trips.**  For any registered config,
   ``from_dict(to_dict(c))`` digests equal to ``c`` — constructors
   re-normalise the relaxed JSON forms (lists back to tuples and
   frozensets, enum tags back to members), so the canonical form is a
   faithful identity.
2. **The schema is the signature.**  Every ``__init__`` parameter of
   :class:`ExperimentConfig` is a field, and ``replaced``/``to_dict``/
   ``from_dict`` cover all of them — the drift guard below fails the
   moment someone adds a parameter without it round-tripping (the old
   hand-maintained ``replaced()`` dict silently dropped new fields).
3. **The executor is ``run_experiment``.**  Inline execution, pool
   execution and cache hits all produce artifacts whose ``run_digest``
   equals the one computed from a direct ``run_experiment`` call.
"""

import inspect
import pickle
from array import array

import pytest

from repro.bench.digest import run_digest, run_payload
from repro.bench.runner import ExperimentConfig, RunResult, run_experiment
from repro.cluster import Topology
from repro.engines.mysql import MySQLConfig
from repro.engines.postgres import PostgresConfig
from repro.engines.voltdb import VoltDBConfig
from repro.exec import Executor, config_fields, from_dict, run_many, to_dict
from repro.exec import executor as executor_module
from repro.exec.artifact import RunArtifact
from repro.faults.plan import FaultPlan
from repro.replication import ReplicationConfig
from repro.sim.disk import DiskConfig
from repro.sim.kernel import Simulator
from repro.sim.network import NetworkConfig
from repro.wal.mysql_log import FlushPolicy


def tiny(**overrides):
    kwargs = dict(
        workload="ycsb",
        workload_kwargs={"scale_factor": 1, "rows_per_sf": 32},
        n_txns=30,
        seed=11,
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


# ----------------------------------------------------------------------
# Schema: canonical round-trips and digests
# ----------------------------------------------------------------------


ROUND_TRIP_CONFIGS = [
    ExperimentConfig(),
    tiny(),
    tiny(engine="mysql", engine_config=MySQLConfig(
        scheduler="VATS", flush_policy=FlushPolicy.LAZY_FLUSH,
        log_disk=DiskConfig.battery_backed(),
    )),
    tiny(engine="postgres", engine_config=PostgresConfig(parallel_wal=True)),
    tiny(engine="voltdb", engine_config=VoltDBConfig(n_workers=4)),
    tiny(fault_plan=FaultPlan(
        name="mixed", io_error_prob=0.01,
        brownout_windows=((1_000.0, 2_000.0),),
        node_crash_times=((0, 5_000.0),),
    )),
    tiny(workload="tpcc", workload_kwargs={"warehouses": 8,
                                           "remote_payment_prob": 0.2},
         num_shards=2,
         topology=Topology(router="range",
                           network=NetworkConfig(latency_mean=300.0)),
         check=True),
    tiny(workload="tpcc", workload_kwargs={"warehouses": 4}, replicas=2,
         replication=ReplicationConfig(mode="semi_sync", ack_k=2,
                                       read_policy="replica_ok"),
         instrumented=("os_event_wait", "fil_flush"), probe_cost=0.05),
]


@pytest.mark.parametrize("config", ROUND_TRIP_CONFIGS,
                         ids=lambda c: c.config_digest()[:8])
def test_round_trip_digest_identity(config):
    data = config.to_dict()
    rebuilt = ExperimentConfig.from_dict(data)
    assert rebuilt.config_digest() == config.config_digest()
    # The canonical form itself is stable under a second trip.
    assert rebuilt.to_dict() == data


def test_round_trip_digests_all_distinct():
    digests = [c.config_digest() for c in ROUND_TRIP_CONFIGS]
    assert len(set(digests)) == len(digests)


def test_canonical_form_is_plain_json_data():
    import json

    data = tiny(
        engine_config=MySQLConfig(flush_policy=FlushPolicy.LAZY_WRITE),
        fault_plan=FaultPlan(name="x", io_error_prob=0.5),
    ).to_dict()
    json.dumps(data)  # no custom types anywhere


def test_enum_round_trips_through_tag():
    config = MySQLConfig(flush_policy=FlushPolicy.LAZY_FLUSH)
    rebuilt = MySQLConfig.from_dict(config.to_dict())
    assert rebuilt.flush_policy is FlushPolicy.LAZY_FLUSH


def test_from_dict_rejects_wrong_class_and_garbage():
    payload = MySQLConfig().to_dict()
    with pytest.raises(TypeError):
        ExperimentConfig.from_dict(payload)
    with pytest.raises(TypeError):
        from_dict({"no": "tag"})
    with pytest.raises(TypeError):
        from_dict({"__config__": "NoSuchConfig"})


def test_module_level_to_dict_matches_method():
    config = tiny()
    assert to_dict(config) == config.to_dict()


# ----------------------------------------------------------------------
# Drift guard: every __init__ parameter round-trips (satellite 2)
# ----------------------------------------------------------------------

#: One non-default value per ExperimentConfig field.  The guard below
#: fails when a new __init__ parameter is added without extending this
#: table — and the round-trip assertions then prove the new field
#: survives replaced()/to_dict()/from_dict(), which the old
#: hand-maintained replaced() dict could not promise.
NON_DEFAULT_VALUES = {
    "engine": "postgres",
    "workload": "ycsb",
    "workload_kwargs": {"warehouses": 3},
    "engine_config": MySQLConfig(scheduler="VATS"),
    "seed": 7,
    "n_txns": 50,
    "rate_tps": 123.0,
    "warmup_fraction": 0.25,
    "instrumented": ("os_event_wait", "fil_flush"),
    "probe_cost": 0.5,
    "telemetry": False,
    "fault_plan": FaultPlan(name="guard", io_error_prob=0.01),
    "num_shards": 2,
    "topology": Topology(router="range"),
    "replicas": 1,
    "replication": ReplicationConfig(mode="async"),
    "check": True,
}


def test_drift_guard_table_covers_schema_exactly():
    assert set(NON_DEFAULT_VALUES) == set(config_fields(ExperimentConfig))


@pytest.mark.parametrize("field", sorted(NON_DEFAULT_VALUES))
def test_every_field_round_trips(field):
    base = ExperimentConfig()
    changed = base.replaced(**{field: NON_DEFAULT_VALUES[field]})
    # replaced() carried the override (digest must move)...
    assert changed.config_digest() != base.config_digest()
    # ...and the serialisation round-trip preserves it exactly.
    rebuilt = ExperimentConfig.from_dict(changed.to_dict())
    assert rebuilt.config_digest() == changed.config_digest()
    # Changing the field back restores the base identity.
    restored = changed.replaced(**{field: getattr(base, field)})
    assert restored.config_digest() == base.config_digest()


def test_replaced_rejects_unknown_fields():
    with pytest.raises(TypeError, match="no field"):
        ExperimentConfig().replaced(engin="mysql")
    with pytest.raises(TypeError, match="no field"):
        MySQLConfig().replaced(not_a_knob=1)


# ----------------------------------------------------------------------
# Eager workload validation (satellite 1)
# ----------------------------------------------------------------------


def test_unknown_workload_rejected_at_construction():
    with pytest.raises(ValueError, match="unknown workload"):
        ExperimentConfig(workload="tpcc_typo")


def test_unknown_workload_kwarg_rejected_at_construction():
    with pytest.raises(ValueError, match="does not accept"):
        ExperimentConfig(workload="ycsb",
                         workload_kwargs={"warehouses": 4})
    with pytest.raises(ValueError, match="scale_factr"):
        ExperimentConfig(workload="ycsb",
                         workload_kwargs={"scale_factr": 1})


def test_valid_workload_kwargs_accepted():
    ExperimentConfig(workload="ycsb",
                     workload_kwargs={"scale_factor": 2, "zipf_theta": 0.9})
    ExperimentConfig(workload="tpcc", workload_kwargs={"warehouses": 4})


# ----------------------------------------------------------------------
# Artifacts
# ----------------------------------------------------------------------


def _plain(value):
    """Structural form of an accessor's value, comparable across a pickle.

    Traces, histories and summaries compare by identity; this turns them
    (and everything under them) into dicts, lists and scalars.
    """
    if isinstance(value, dict):
        return {key: _plain(val) for key, val in value.items()}
    if isinstance(value, (list, tuple, array)):
        return [_plain(val) for val in value]
    if hasattr(value, "to_dict"):
        return value.to_dict()
    slots = getattr(type(value), "__slots__", None)
    if slots is not None:
        return (type(value).__name__,
                {name: _plain(getattr(value, name)) for name in slots})
    return value


def _read_api(run):
    """Every public read accessor of ``run``, evaluated to plain data."""
    txn_type = run.all_traces[0].txn_type
    arguments = {
        "latencies_of": (txn_type,),
        "node_metrics_snapshot": (0,),
    }
    values = {}
    for name, member in vars(RunArtifact).items():
        if name.startswith("_") or name == "from_result":
            continue
        value = getattr(run, name)
        if inspect.isfunction(member):
            value = value(*arguments.get(name, ()))
        values[name] = _plain(value)
    return values


def test_artifact_mirrors_run_result():
    config = tiny(
        workload="tpcc",
        workload_kwargs={"warehouses": 4, "remote_payment_prob": 0.3},
        n_txns=60, num_shards=2, replicas=1, check=True, telemetry=True,
    )
    result = run_experiment(config)
    artifact = RunArtifact.from_result(result)
    assert artifact.latencies == result.latencies
    assert artifact.summary.mean == result.summary.mean
    assert artifact.summary.variance == result.summary.variance
    assert artifact.throughput_tps == result.throughput_tps
    assert artifact.metrics_snapshot() == result.metrics_snapshot()
    assert artifact.event_log_jsonl() == result.event_log_jsonl()
    assert artifact.abort_counts == result.abort_counts
    assert artifact.failed_counts == result.failed_counts
    assert artifact.fault_counts == result.fault_counts
    assert artifact.outcome_counts == result.outcome_counts
    assert artifact.shed_txns == result.shed_txns
    assert artifact.check_report() == result.check_report() == []
    assert artifact.config_digest == config.config_digest()
    assert run_digest(artifact) == run_digest(result)

    # Every read accessor, on the live result and on a pickled copy.
    clone = pickle.loads(pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL))
    live = _read_api(result)
    assert live == _read_api(clone)
    assert {"committed_count", "cluster_stats", "dispatch_count",
            "final_clock", "txn_outcomes", "node_metrics_snapshot",
            "metrics_rollup", "history", "config"} <= set(live)
    assert live["cluster_stats"]["cross_shard_txns"] > 0
    assert live["node_metrics_snapshot"] and live["metrics_rollup"]
    assert live["final_clock"] == result.sim.now
    assert live["dispatch_count"] == result.sim.dispatch_count


def test_run_result_adds_only_live_handles():
    own = {name for name in vars(RunResult)
           if not (name.startswith("__") and name.endswith("__"))}
    assert own == {"sim", "engine", "log"}
    methods = {name for name, member in vars(RunResult).items()
               if inspect.isfunction(member)
               or isinstance(member, (property, classmethod, staticmethod))}
    assert methods == {"__init__", "__repr__"}


def test_oracles_run_once_per_run(monkeypatch):
    from repro.check import oracles

    real = oracles.check_all
    calls = []

    def counting(history):
        calls.append(history)
        return real(history)

    monkeypatch.setattr(oracles, "check_all", counting)
    result = run_experiment(tiny(check=True))
    assert result.check_report() == []
    assert result.check_report() == []
    artifact = RunArtifact.from_result(result)
    assert artifact.check_report() == []
    assert len(calls) == 1


def test_perfbench_contract():
    """The entry points the frozen benchmark harness patches and reads."""
    assert isinstance(RunArtifact.__dict__["from_result"], classmethod)

    class Kernel(Simulator):
        pass

    result = run_experiment(tiny(), simulator_cls=Kernel)
    assert isinstance(result.sim, Kernel)
    assert type(RunArtifact.from_result(result)) is RunArtifact


def test_artifact_pickle_round_trip():
    config = tiny(
        workload="tpcc", workload_kwargs={"warehouses": 4}, num_shards=2,
        fault_plan=FaultPlan(name="p", io_error_prob=0.005), check=True,
    )
    artifact = RunArtifact.from_result(run_experiment(config))
    clone = pickle.loads(pickle.dumps(artifact, pickle.HIGHEST_PROTOCOL))
    assert run_digest(clone) == run_digest(artifact)
    assert clone.outcome_counts == artifact.outcome_counts
    assert [repr(v) for v in clone.check_report() or []] == []
    assert len(clone.history.txns) == len(artifact.history.txns)
    # The config rebuilds from the embedded canonical payload.
    assert clone.config.config_digest() == config.config_digest()


def test_artifact_cluster_stats():
    config = tiny(workload="tpcc",
                  workload_kwargs={"warehouses": 8,
                                   "remote_payment_prob": 0.3},
                  num_shards=2)
    artifact = RunArtifact.from_result(run_experiment(config))
    stats = artifact.cluster_stats
    assert stats["single_home_txns"] + stats["cross_shard_txns"] > 0
    assert tiny().replaced(n_txns=20).config_digest()  # smoke: replaced chains


# ----------------------------------------------------------------------
# Executor: inline backend, ordering, dedup, cache
# ----------------------------------------------------------------------


def test_inline_executor_equals_run_experiment():
    config = tiny()
    artifact = Executor(jobs=1).run_one(config)
    assert run_digest(artifact) == run_digest(run_experiment(config))


def test_run_many_preserves_input_order():
    configs = [tiny(seed=s) for s in (5, 3, 9)]
    artifacts = run_many(configs)
    assert [a.config.seed for a in artifacts] == [5, 3, 9]
    for config, artifact in zip(configs, artifacts):
        assert artifact.config_digest == config.config_digest()


def test_identical_configs_run_once_and_share_artifacts(monkeypatch):
    calls = []
    real = executor_module._execute

    def counting(config_data):
        calls.append(config_data["seed"])
        return real(config_data)

    monkeypatch.setattr(executor_module, "_execute", counting)
    configs = [tiny(seed=1), tiny(seed=2), tiny(seed=1)]
    artifacts = Executor(jobs=1).run(configs)
    assert sorted(calls) == [1, 2]
    assert run_digest(artifacts[0]) == run_digest(artifacts[2])
    assert run_digest(artifacts[0]) != run_digest(artifacts[1])


def test_cache_hit_skips_execution(monkeypatch, tmp_path):
    config = tiny()
    executor = Executor(jobs=1, cache_dir=tmp_path)
    first = executor.run_one(config)

    def boom(config_data):
        raise AssertionError("cache should have answered")

    monkeypatch.setattr(executor_module, "_execute", boom)
    # A fresh executor sharing the directory answers from disk.
    second = Executor(jobs=1, cache_dir=tmp_path).run_one(config)
    assert run_digest(second) == run_digest(first)
    # A different config misses (and would execute -> boom).
    with pytest.raises(AssertionError, match="cache should have"):
        Executor(jobs=1, cache_dir=tmp_path).run_one(tiny(seed=999))


def test_cache_key_includes_code_version(monkeypatch, tmp_path):
    config = tiny()
    executor = Executor(jobs=1, cache_dir=tmp_path)
    executor.run_one(config)
    ran = []

    def tracking(config_data):
        ran.append(config_data["seed"])
        return ExperimentConfig  # never used; run() stores it blindly

    monkeypatch.setattr(executor_module, "_execute", tracking)
    monkeypatch.setattr(executor_module, "_CODE_VERSION", "different")
    Executor(jobs=1, cache_dir=tmp_path).run(configs=[config])
    assert ran == [config.seed]  # old entry unusable under new code


def test_executor_progress_and_validation():
    with pytest.raises(ValueError):
        Executor(jobs=0)
    seen = []
    run_many([tiny(seed=1), tiny(seed=2)],
             progress=lambda done, total: seen.append((done, total)))
    assert seen == [(1, 2), (2, 2)]
