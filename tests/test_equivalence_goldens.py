"""Golden equivalence digests: the fast paths change nothing observable.

``tests/goldens/equivalence_digests.json`` holds one SHA-256 digest per
(engine, seed, telemetry) macro cell plus one full-chaos fault-plan
run, captured from the pre-optimisation tree.  Every run here must
reproduce its digest byte for byte: same (config, seed) ⇒ identical
latency sequence, final clock, metrics snapshot and abort/fault counts,
no matter what wall-clock fast paths the kernel or engines grow.

``tests/goldens/instrumented_digests.json`` holds five probed cells
(every call-graph name at a small probe cost, a subset at a large one,
a 2-shard 2PC run and a node-crash run), each with its run digest and a
digest of every trace's frame attribution: the instrumented statement
loops must reproduce both the run and where each frame's time went.

Regenerate with ``scripts/gen_equivalence_goldens.py`` — but only for
an intentional *semantic* change to the simulation, never to make a
performance patch pass.
"""

import gc
import json
import os
import sys

import pytest

from repro.bench import paperconfig as pc
from repro.bench.digest import run_digest
from repro.bench.runner import run_experiment


def _load_goldens(name="equivalence_digests.json"):
    path = os.path.join(os.path.dirname(__file__), "goldens", name)
    with open(path) as fh:
        return json.load(fh)


def _golden_script():
    import importlib.util

    script = os.path.join(
        os.path.dirname(__file__), "..", "scripts",
        "gen_equivalence_goldens.py",
    )
    spec = importlib.util.spec_from_file_location("gen_goldens", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


GEN = _golden_script()
GOLDENS = _load_goldens()
CONFIGS = list(GEN.golden_configs())
INSTRUMENTED_GOLDENS = _load_goldens("instrumented_digests.json")
INSTRUMENTED_CONFIGS = list(GEN.instrumented_configs())


def test_golden_set_is_complete():
    assert sorted(GOLDENS) == sorted(key for key, _ in CONFIGS)
    assert sorted(INSTRUMENTED_GOLDENS) == sorted(
        key for key, _ in INSTRUMENTED_CONFIGS
    )


@pytest.mark.parametrize(
    "key,config", CONFIGS, ids=[key for key, _ in CONFIGS]
)
def test_run_digest_matches_golden(key, config):
    assert run_digest(run_experiment(config)) == GOLDENS[key], (
        "digest drift on %s: the optimised kernel/engine produced a "
        "different observable run than the committed golden" % key
    )


@pytest.mark.parametrize(
    "key,config", INSTRUMENTED_CONFIGS,
    ids=[key for key, _ in INSTRUMENTED_CONFIGS],
)
def test_instrumented_digests_match_golden(key, config):
    assert GEN.instrumented_digests(config) == INSTRUMENTED_GOLDENS[key], (
        "instrumented drift on %s: the run or its frame attribution "
        "differs from the committed golden" % key
    )


@pytest.mark.parametrize("crash_at", [150_000.0, 250_000.0])
def test_killed_workers_finalize_quietly(monkeypatch, crash_at):
    """A node crash kills workers mid-frame; finalizing them must not raise.

    ``Engine._crash_txn`` clears ``ctx.stack`` while the dead workers'
    generators may still sit inside traced frames.  When those
    generators are finalized, the frames exit on ``GeneratorExit`` and
    find themselves gone from the stack; they must be dropped silently.
    150 ms is the probed node-crash golden cell; at 250 ms a killed
    worker is inside the redo log's traced ``log_write_up_to`` frame.
    """
    from repro.faults import named_plan

    key = "mysql-2wh/all-probes-0.05/node-crash"
    config = dict(INSTRUMENTED_CONFIGS)[key].replaced(
        fault_plan=named_plan("node-crash", node_crash_times=((0, crash_at),)),
    )
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    run_experiment(config)
    gc.collect()
    assert [str(u.exc_value) for u in unraisable] == []


def test_zero_cost_instrumentation_is_invisible():
    """Zero-cost markers in the MySQL statement loop change nothing.

    With ``probe_cost=0`` the statement-level markers must produce a
    byte-identical run to an uninstrumented one — instrumentation may
    only add its probe cost, never change scheduling.
    """
    base = pc.mysql_128wh_experiment("VATS", seed=7, n_txns=150)
    probes = (
        "row_search_for_mysql", "row_upd_step", "row_ins", "lock_rec_lock",
        "sel_set_rec_lock", "lock_wait_suspend_thread",
        "btr_cur_search_to_nth_level",
    )
    fast = run_digest(run_experiment(base))
    traced = run_digest(
        run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    )
    assert fast == traced


def test_postgres_zero_cost_instrumentation_is_invisible():
    """Every Postgres marker at ``probe_cost=0`` against none: identical."""
    base = pc.postgres_experiment(seed=7, n_txns=150)
    probes = (
        "exec_simple_query", "PortalRun", "ExecutorRun", "index_fetch",
        "PredicateLockTuple", "heap_lock_tuple", "LockAcquireExtended",
        "ProcSleep", "CommitTransaction", "RecordTransactionCommit",
        "XLogFlush", "ReleasePredicateLocks",
    )
    fast = run_digest(run_experiment(base))
    traced = run_digest(
        run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    )
    assert fast == traced


def test_voltdb_zero_cost_instrumentation_is_invisible():
    """Every VoltDB record at ``probe_cost=0`` against none: identical."""
    base = pc.voltdb_experiment(seed=7, n_txns=150)
    probes = (
        "transaction", "execute_procedure", "init_procedure",
        "run_plan_fragments", "[waiting in queue]",
    )
    fast = run_digest(run_experiment(base))
    traced = run_digest(
        run_experiment(base.replaced(instrumented=probes, probe_cost=0.0))
    )
    assert fast == traced
