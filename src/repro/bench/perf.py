"""Wall-clock performance measurement for the simulation kernel.

Everything else in ``bench/`` measures *virtual* time; this module is
the one place that measures *wall* time — how many simulated events and
committed transactions per real second the kernel sustains.  The
numbers feed ``BENCH_PERF.json`` (written by
``scripts/run_perf_bench.py``) and the CI ``perf-smoke`` job, which
re-measures a tiny run and fails on a large regression against the
committed baseline.

Wall-clock timing is inherently noisy (machine load, CPU scaling,
allocator state), which is why :func:`measure` reports the *minimum* of
several repeats — contention only ever adds time, so the fastest sample
is the least-disturbed one (the same reasoning as ``timeit``) — and why
:func:`check_regression` applies a generous tolerance: the gate exists
to catch accidental 3×+ slowdowns of the dispatch loop, not 10% drift.
For before/after comparisons, time both kernels interleaved in one
process (``measure(..., simulator_cls=ReferenceSimulator)``) so they
see the same machine conditions.
"""

import os
import time

from repro.bench import paperconfig as pc
from repro.bench.runner import run_experiment

#: The fixed macro-workloads the perf trajectory is tracked on.  Keys
#: are stable identifiers recorded in BENCH_PERF.json.
MACROS = {
    "mysql-tpcc-vats": lambda seed, n_txns: pc.mysql_128wh_experiment(
        "VATS", seed=seed, n_txns=n_txns
    ),
    "postgres-tpcc": lambda seed, n_txns: pc.postgres_experiment(
        seed=seed, n_txns=n_txns
    ),
    "voltdb-tpcc": lambda seed, n_txns: pc.voltdb_experiment(
        seed=seed, n_txns=n_txns
    ),
}

MACRO_SEED = 7
MACRO_N_TXNS = 2000


def macro_config(name, seed=MACRO_SEED, n_txns=MACRO_N_TXNS, telemetry=True):
    """The fixed (config, seed) macro-run for one tracked workload."""
    return MACROS[name](seed, n_txns).replaced(telemetry=telemetry)


def macro_engines():
    """Mapping of macro name -> engine name (for ``--engines`` filters)."""
    return {name: MACROS[name](MACRO_SEED, 1).engine for name in MACROS}


def profile_macro(config, top=20, sort="cumulative"):
    """cProfile one ``run_experiment(config)``; return the stats text.

    Perf PRs should start from this, not guesses: the top-20 cumulative
    hotspots say which layer (kernel, engine, telemetry, workload
    generation) actually owns the wall time for a given macro.
    """
    import cProfile
    import io
    import pstats

    profiler = cProfile.Profile()
    profiler.enable()
    run_experiment(config)
    profiler.disable()
    stream = io.StringIO()
    stats = pstats.Stats(profiler, stream=stream)
    stats.strip_dirs().sort_stats(sort).print_stats(top)
    return stream.getvalue()


def _timed_run(config, simulator_cls=None):
    """One timed ``run_experiment``; returns (wall_seconds, result)."""
    start = time.perf_counter()
    result = run_experiment(config, simulator_cls=simulator_cls)
    return time.perf_counter() - start, result


def _measurement(config, walls, result, repeats):
    wall = min(walls)
    dispatches = result.dispatch_count
    committed = len(result.traces)
    return {
        "engine": config.engine,
        "workload": config.workload,
        "seed": config.seed,
        "n_txns": config.n_txns,
        "telemetry": config.telemetry,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "wall_seconds": round(wall, 4),
        "wall_seconds_all": [round(w, 4) for w in sorted(walls)],
        "dispatches": dispatches,
        "committed_txns": committed,
        "events_per_sec": round(dispatches / wall, 1),
        "txns_per_sec": round(committed / wall, 1),
    }


def measure(config, repeats=3, simulator_cls=None):
    """Time ``run_experiment(config)``: best wall seconds over repeats.

    Returns a plain dict (JSON-ready) with the fastest repeat and the
    derived events/sec and txns/sec rates.  Virtual-time results are
    identical across repeats (same config, same seed), so only the
    clock varies.  ``simulator_cls`` times an alternative kernel (e.g.
    the reference kernel) on the identical workload.
    """
    walls = []
    result = None
    for _ in range(repeats):
        wall, result = _timed_run(config, simulator_cls=simulator_cls)
        walls.append(wall)
    return _measurement(config, walls, result, repeats)


def measure_macros(names=None, seed=MACRO_SEED, n_txns=MACRO_N_TXNS,
                   repeats=3, progress=None, simulator_cls=None):
    """Measure every tracked macro-workload, telemetry on and off.

    Each macro's telemetry-on/off pair is interleaved *within* every
    repeat round (on, off, on, off, ...) so both sides of the overhead
    ratio see the same machine conditions — a load drift between two
    back-to-back repeat blocks would otherwise bias the tax by more
    than the tax itself.  Every entry records its position in the
    measurement sequence (``interleave_order``) and the machine's
    ``cpu_count`` so a reader of ``BENCH_PERF.json`` can reconstruct
    the run conditions without the shell history.
    """
    report = {}
    order = 0
    for name in names or sorted(MACROS):
        configs = {
            telemetry: macro_config(name, seed=seed, n_txns=n_txns,
                                    telemetry=telemetry)
            for telemetry in (True, False)
        }
        keys = {
            telemetry: "%s/telemetry-%s" % (name, "on" if telemetry else "off")
            for telemetry in (True, False)
        }
        if progress:
            progress("measuring %s + %s (interleaved) ..."
                     % (keys[True], keys[False]))
        walls = {True: [], False: []}
        results = {True: None, False: None}
        for _ in range(repeats):
            for telemetry in (True, False):
                wall, results[telemetry] = _timed_run(
                    configs[telemetry], simulator_cls=simulator_cls
                )
                walls[telemetry].append(wall)
        for telemetry in (True, False):
            key = keys[telemetry]
            report[key] = _measurement(
                configs[telemetry], walls[telemetry], results[telemetry],
                repeats,
            )
            report[key]["interleave_order"] = order
            order += 1
            if progress:
                progress("  %s: %.0f events/sec, %.0f txns/sec (wall %.3fs)"
                         % (key, report[key]["events_per_sec"],
                            report[key]["txns_per_sec"],
                            report[key]["wall_seconds"]))
    return report


#: The fixed multi-config sweep the execution layer is measured on:
#: the mysql macro at consecutive seeds (independent, identical cost).
EXEC_SWEEP_N_CONFIGS = 8
EXEC_SWEEP_N_TXNS = 600


def exec_sweep_configs(n_configs=EXEC_SWEEP_N_CONFIGS,
                       n_txns=EXEC_SWEEP_N_TXNS, seed0=MACRO_SEED):
    """The configs of the tracked executor sweep (seeds ``seed0``...)."""
    return [
        macro_config("mysql-tpcc-vats", seed=seed0 + i, n_txns=n_txns)
        for i in range(n_configs)
    ]


def measure_exec_sweep(jobs_list=(1, 4), n_configs=EXEC_SWEEP_N_CONFIGS,
                       n_txns=EXEC_SWEEP_N_TXNS, repeats=3, progress=None):
    """Wall-clock the same sweep through each executor backend.

    Backends are timed interleaved within every repeat (the PR-3
    discipline: both sides see the same machine conditions), the
    fastest repeat wins, and every backend's per-config run digests
    must be byte-identical to the first backend's — the measurement
    doubles as a parallel-equals-serial check.

    ``cpu_count`` is recorded in the result because the speedup is
    meaningless without it: a process pool cannot beat serial on a
    single-core container, and near-linear scaling is only expected
    when ``cpu_count >= jobs``.
    """
    import os

    from repro.bench.digest import run_digest
    from repro.exec.executor import Executor

    configs = exec_sweep_configs(n_configs, n_txns)
    walls = {jobs: [] for jobs in jobs_list}
    digests = {}
    for repeat in range(repeats):
        for jobs in jobs_list:
            if progress:
                progress("exec sweep repeat %d/%d jobs=%d ..."
                         % (repeat + 1, repeats, jobs))
            start = time.perf_counter()
            artifacts = Executor(jobs=jobs).run(configs)
            walls[jobs].append(time.perf_counter() - start)
            measured = [run_digest(artifact) for artifact in artifacts]
            if jobs in digests and digests[jobs] != measured:
                raise AssertionError(
                    "jobs=%d produced different digests across repeats"
                    % (jobs,)
                )
            digests[jobs] = measured
    baseline_jobs = jobs_list[0]
    for jobs in jobs_list[1:]:
        if digests[jobs] != digests[baseline_jobs]:
            raise AssertionError(
                "jobs=%d artifacts are not byte-identical to jobs=%d"
                % (jobs, baseline_jobs)
            )
    result = {
        "n_configs": n_configs,
        "n_txns": n_txns,
        "repeats": repeats,
        "cpu_count": os.cpu_count(),
        "interleave_order": [str(jobs) for jobs in jobs_list],
        "digests_identical": True,
        "wall_seconds": {
            str(jobs): round(min(walls[jobs]), 4) for jobs in jobs_list
        },
        "wall_seconds_all": {
            str(jobs): [round(w, 4) for w in sorted(walls[jobs])]
            for jobs in jobs_list
        },
    }
    base_wall = min(walls[baseline_jobs])
    result["speedup_vs_jobs_%d" % baseline_jobs] = {
        str(jobs): round(base_wall / min(walls[jobs]), 2)
        for jobs in jobs_list[1:]
    }
    if result["cpu_count"] is not None and result["cpu_count"] < max(jobs_list):
        result["note"] = (
            "measured with cpu_count < max jobs: workers serialise on the "
            "available cores and spawn/pickling overhead dominates, so the "
            "recorded speedup is a floor; near-linear scaling expected "
            "when cores >= jobs"
        )
    return result


def check_regression(baseline_events_per_sec, measured_events_per_sec,
                     tolerance=3.0):
    """Fail-message (or None) for the CI perf-smoke comparison.

    A measured rate more than ``tolerance``× below the committed
    baseline indicates the dispatch loop lost its fast paths; anything
    within tolerance is machine noise.
    """
    if measured_events_per_sec * tolerance >= baseline_events_per_sec:
        return None
    return (
        "perf regression: measured %.0f events/sec is more than %.1fx below "
        "the committed baseline of %.0f events/sec"
        % (measured_events_per_sec, tolerance, baseline_events_per_sec)
    )
