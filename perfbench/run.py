#!/usr/bin/env python3
"""The repository benchmark: host cost of four paper workloads.

Usage, from the repository root::

    python3 perfbench/run.py --workload tpcc-mysql --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

``--trace 0`` measures the end-to-end metrics: it repeats the
workload's user action, each time in a fresh single-threaded child
process (``child.py``), until ``--seconds`` have passed (at least three
times), and reports the medians of

- ``txns_per_s``: committed simulated transactions per host second of
  the whole action, from process start to the last output check;
- ``setup_s``: host seconds before simulating -- interpreter start and
  package import, plus each run's time from ``run_experiment`` entry to
  ``Simulator.run`` entry;
- ``peak_rss_mb``: the child's peak resident memory.

``--trace 1`` does the same untraced repeats, then one spans pass and
one cProfile pass on the same seed, and reports the per-layer ledger
(see README.md).  Both modes first re-run three golden cells of
``tests/goldens/equivalence_digests.json`` and check every run's
output; ``fail_ratio`` is failed runs over attempted runs.  The last
line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  A full report, with the method record, is
written under ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
CHILD = os.path.join(HERE, "child.py")
GOLDENS = os.path.join(ROOT, "tests", "goldens", "equivalence_digests.json")

#: Untraced actions per run, at least, whatever ``--seconds`` says.
MIN_REPEATS = 3
#: Wall-clock budget of one invocation; the rest is kept for the traced
#: passes and the report.
BUDGET_S = 170.0
#: The profiled self times must sum to the profiled host time within
#: this share of it (the accounting check).
ACCOUNTING_SHARE = 0.05

#: Children run single-threaded: no BLAS/OpenMP worker pools.
SINGLE_THREADED = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
                   "MKL_NUM_THREADS": "1"}
CHILD_ENV = dict(os.environ, **SINGLE_THREADED)

#: Span totals that are exactly zero on every workload that never calls
#: the entry point; printed and saved, but left out of the JSON result.
PRINT_ONLY = {"bufferpool.prewarm_s", "check.oracles_s", "core.analysis_s"}

END_TO_END_UNITS = {"txns_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def _median(values):
    return statistics.median(values) if values else 0.0


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _commit():
    """The checked-out commit, when the tree is a git work tree."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head) as handle:
            ref = handle.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:])) as handle:
                return handle.read().strip()
        return ref
    except OSError:
        return None


def spawn(workload, seed, mode, timeout):
    """Run one action in a fresh child; returns (report or None, error)."""
    spawned_at = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, CHILD, "--workload", workload, "--seed",
             str(seed), "--mode", mode, "--spawned-at", repr(spawned_at),
             "--out-dir", OUT_DIR],
            cwd=ROOT, env=CHILD_ENV, capture_output=True, text=True,
            timeout=max(1.0, timeout),
        )
    except subprocess.TimeoutExpired:
        return None, "timed out after %.0f s" % timeout
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, (proc.stderr.strip().splitlines() or ["exit %d"
                      % proc.returncode])[-1]
    return json.loads(lines[-1]), None


class Ledger:
    """Attempted/failed run accounting against a reference pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.reference = None
        self.drifted = set()

    def fail(self, label, runs, why):
        self.attempted += runs
        self.failed += runs
        self.problems.append("%s: %s" % (label, why))

    def check_pass(self, label, report):
        """Count one pass's runs, checking them against the first pass."""
        runs = report["runs"]
        if self.reference is None:
            self.reference = report
        ref = self.reference
        if len(runs) != len(ref["runs"]):
            self.fail(label, max(len(runs), len(ref["runs"])),
                      "%d runs, reference has %d"
                      % (len(runs), len(ref["runs"])))
            return
        if report.get("factors") != ref.get("factors"):
            self.fail(label, len(runs), "ranked factor list differs")
            return
        for i, (run, ref_run) in enumerate(zip(runs, ref["runs"])):
            problems = list(run["problems"])
            if run["digest"] != ref_run["digest"]:
                problems.append("run digest differs from the first pass")
            drift = sorted(key for key in run["counts"]
                           if run["counts"][key] != ref_run["counts"][key])
            if drift:
                self.drifted.update(drift)
                problems.append("counts drifted: %s" % ", ".join(drift))
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append("%s run %d: %s"
                                     % (label, i, "; ".join(problems)))


def preflight(ledger):
    """Re-run the seed-7 telemetry-on golden cells; count mismatches."""
    import suite

    with open(GOLDENS) as handle:
        goldens = json.load(handle)
    mismatches = suite.golden_mismatches(goldens)
    ledger.attempted += len(suite.GOLDEN_CELLS)
    ledger.failed += len(mismatches)
    for key in mismatches:
        ledger.problems.append("golden pre-flight: %s digest differs" % key)


def _totals(report, key):
    return sum(run[key] for run in report["runs"])


def end_to_end(plain):
    """Per-action end-to-end values, one list per metric."""
    values = {name: [] for name in END_TO_END_UNITS}
    for report in plain:
        committed = sum(run["counts"]["committed"] for run in report["runs"])
        values["txns_per_s"].append(committed / report["action_s"])
        values["setup_s"].append(report["import_s"]
                                 + _totals(report, "setup_s"))
        values["peak_rss_mb"].append(report["peak_rss_mb"])
    return values


def unattributed(profile):
    """Profiled host time that no layer's self time accounts for."""
    return profile["profiled_s"] - sum(profile["self_s"].values())


def traced_checks(spans, profile, ledger):
    """Checks only the traced passes can make; failures mark a run."""
    problems = profile["runs"][-1]["problems"]
    share = abs(unattributed(profile)) / profile["profiled_s"]
    if share > ACCOUNTING_SHARE:
        problems.append(
            "accounting: self times leave %.1f%% of the profiled time "
            "unattributed (limit %.0f%%)"
            % (100 * share, 100 * ACCOUNTING_SHARE))
    if spans["artifact_kb"] != profile["artifact_kb"]:
        ledger.drifted.add("artifact_kb")
        problems.append("artifact_kb drifted between the traced passes")


def per_layer(plain, spans, profile, ledger):
    """The per-layer ledger: ``{name: (value, unit)}``."""
    import selftime

    counts = {}
    for run in ledger.reference["runs"]:
        for key, value in run["counts"].items():
            counts[key] = counts.get(key, 0) + value
    txns = counts["committed"]

    def per_txn(key):
        return counts[key] / txns

    def share(part, whole):
        return part / whole if whole else 0.0

    span = spans["spans"]

    def span_total(name, field="total_s"):
        return span.get(name, {}).get(field, 0.0)

    untraced_action = _median([r["action_s"] for r in plain])
    layer = {
        "phase.import_s": (_median([r["import_s"] for r in plain]), "s"),
        "phase.setup_s": (_median([_totals(r, "setup_s") for r in plain]),
                          "s"),
        "phase.sim_s": (_median([_totals(r, "sim_s") for r in plain]), "s"),
        "phase.finish_s": (_median([_totals(r, "finish_s") for r in plain]),
                           "s"),
        "sim.dispatches_per_txn": (per_txn("dispatches"), "count/txn"),
        "sim.spawns_per_txn": (per_txn("spawns"), "count/txn"),
        "lockmgr.requests_per_txn": (per_txn("lock_requests"), "count/txn"),
        "lockmgr.waits_per_txn": (per_txn("lock_waits"), "count/txn"),
        "bufferpool.prewarm_s": (span_total("BufferPool.prewarm"), "s"),
        "bufferpool.miss_ratio": (share(
            counts["page_misses"],
            counts["page_misses"] + counts["page_hits"]), "ratio"),
        "bufferpool.evictions_per_txn": (per_txn("evictions"), "count/txn"),
        "wal.flush_rounds_per_txn": (per_txn("flush_rounds"), "count/txn"),
        "workloads.make_txn_s": (span_total("Workload.make_txn"), "s"),
        "workloads.ops_per_txn": (
            spans["span_counts"]["ops_generated"] / txns, "count/txn"),
        "core.traced_frames_per_txn": (
            spans["span_counts"]["traced_frames"] / txns, "count/txn"),
        "core.analysis_s": (max(0.0, span_total("TProfiler.profile")
                                - span_total("run")) if
                            "TProfiler.profile" in span else 0.0, "s"),
        "telemetry.snapshot_s": (span_total("MetricsRegistry.snapshot"),
                                 "s"),
        "check.oracles_s": (span_total("check_all"), "s"),
        "check.ops_recorded_per_txn": (per_txn("ops_recorded"), "count/txn"),
        "cluster.cross_shard_share": (share(
            counts["cross_shard"],
            counts["cross_shard"] + counts["single_home"]), "ratio"),
        "cluster.net_messages_per_txn": (per_txn("net_messages"),
                                         "count/txn"),
        "replication.acks_per_txn": (per_txn("repl_acks"), "count/txn"),
        "replication.replica_reads_per_txn": (per_txn("replica_reads"),
                                              "count/txn"),
        "exec.artifact_s": (
            span_total("RunArtifact.from_result", "self_s"), "s"),
        "exec.artifact_kb": (profile["artifact_kb"], "kB"),
        "trace_overhead": (spans["action_s"] / untraced_action - 1.0,
                           "ratio"),
        "trace.spans": (float(spans["span_total"]), "count"),
    }
    self_s = profile["self_s"]
    for name in selftime.LAYERS:
        layer["%s.self_s" % name] = (self_s[name], "s")
    layer["accounting.profiled_s"] = (profile["profiled_s"], "s")
    layer["accounting.unattributed_s"] = (unattributed(profile), "s")
    layer["accounting.unattributed_share"] = (
        abs(unattributed(profile)) / profile["profiled_s"], "ratio")
    layer["checks.count_drift"] = (float(len(ledger.drifted)), "count")
    return layer


def measure(workload, seed, seconds, trace, ledger, order):
    """All passes of one workload; returns (plain reports, layer or None)."""
    started = time.monotonic()
    reserve = 0.0
    attempt = 0
    plain = []
    while True:
        elapsed = time.monotonic() - started
        last = plain[-1]["action_s"] if plain else 0.0
        if len(plain) >= MIN_REPEATS and elapsed + last > seconds:
            break
        if plain and elapsed + last + reserve > BUDGET_S:
            break
        attempt += 1
        label = "plain#%d" % attempt
        report, error = spawn(workload, seed, "plain",
                              BUDGET_S - elapsed - reserve)
        order.append(label)
        if report is None:
            ledger.fail(label, 1, error)
            if not plain:
                break
            continue
        plain.append(report)
        ledger.check_pass(label, report)
        if trace and reserve == 0.0:
            # Keep room for the traced passes (cProfile costs ~3x).
            reserve = 5.0 * report["action_s"]
    if not trace or not plain:
        return plain, None
    traced = {}
    for mode in ("spans", "profile"):
        remaining = BUDGET_S - (time.monotonic() - started)
        report, error = spawn(workload, seed, mode, remaining)
        order.append(mode)
        if report is None:
            ledger.fail(mode, len(plain[0]["runs"]), error)
            return plain, None
        traced[mode] = report
    traced_checks(traced["spans"], traced["profile"], ledger)
    for mode, report in traced.items():
        ledger.check_pass(mode, report)
    return plain, per_layer(plain, traced["spans"], traced["profile"], ledger)


def run_workload(workload, args, ledger):
    """Measure one workload; prints its table, returns the JSON metrics."""
    import suite
    from repro.exec.executor import code_version

    order = ["preflight"]
    plain, layer = measure(workload, args.seed, args.seconds, args.trace,
                           ledger, order)
    if not plain or (args.trace and layer is None):
        return None
    e2e = end_to_end(plain)
    print("%s seed=%d trace=%d: %d untraced actions of %d run(s), "
          "%d txns/run" % (workload, args.seed, args.trace, len(plain),
                           len(plain[0]["runs"]), suite.SIZES[workload]))
    metrics = {}
    for name, unit in END_TO_END_UNITS.items():
        values = e2e[name]
        q1, q3 = _quartiles(values)
        print("  %-34s %12.4f %-9s q1 %.4f  q3 %.4f  n=%d"
              % (name, _median(values), unit, q1, q3, len(values)))
        if not args.trace:
            metrics[name] = {"value": _median(values), "unit": unit}
    ratio = ledger.failed / ledger.attempted if ledger.attempted else 0.0
    print("  %-34s %12.4f %-9s %d failed of %d runs"
          % ("fail_ratio", ratio, "ratio", ledger.failed, ledger.attempted))
    if layer is not None:
        for name, (value, unit) in layer.items():
            print("  %-34s %12.4f %s" % (name, value, unit))
            if name not in PRINT_ONLY:
                metrics[name] = {"value": value, "unit": unit}
    for problem in ledger.problems:
        print("  FAILED %s" % problem)
    method = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "n_txns_per_run": suite.SIZES[workload],
        "runs_per_action": len(plain[0]["runs"]),
        "run_order": order,
        "cpu_count": os.cpu_count(),
        "child_env": SINGLE_THREADED,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": _commit(),
        "code_version": code_version(),
    }
    print("method: %s" % json.dumps(method, sort_keys=True))
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, "result-%s-seed%d-trace%d.json"
                        % (workload, args.seed, args.trace))
    with open(path, "w") as handle:
        json.dump({"method": method, "metrics": metrics,
                   "per_layer": layer, "end_to_end_samples": e2e,
                   "problems": ledger.problems}, handle, indent=2,
                  sort_keys=True)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(ROOT, "src", "repro")) or \
            not os.path.isfile(GOLDENS):
        print("perfbench: no repro package or goldens under %s" % ROOT,
              file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import suite

    if args.workload == "all":
        workloads = list(suite.WORKLOADS)
    elif args.workload in suite.WORKLOADS:
        workloads = [args.workload]
    else:
        parser.error("unknown workload %r (known: all, %s)"
                     % (args.workload, ", ".join(suite.WORKLOADS)))

    pre = Ledger()
    preflight(pre)
    attempted, failed = pre.attempted, pre.failed
    metrics = {}
    for workload in workloads:
        # Each workload's ledger starts from the pre-flight's counts.
        ledger = Ledger()
        ledger.attempted, ledger.failed = pre.attempted, pre.failed
        ledger.problems = list(pre.problems)
        found = run_workload(workload, args, ledger)
        if found is None:
            print("perfbench: %s produced no measurement: %s"
                  % (workload, "; ".join(ledger.problems)), file=sys.stderr)
            return 1
        attempted += ledger.attempted - pre.attempted
        failed += ledger.failed - pre.failed
        if len(workloads) > 1:
            found = {"%s.%s" % (workload, k): v for k, v in found.items()}
        metrics.update(found)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
