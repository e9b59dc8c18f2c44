"""One workload action in a fresh, single-threaded process.

Usage (started by ``run.py``, one process at a time)::

    python3 perfbench/child.py --workload tpcc-mysql --seed 1 \\
        --mode plain --spawned-at <time.monotonic() of the parent>

``--mode plain`` is the timed, untraced action; ``spans`` wraps the
layers' entry points (``spans.py``) and writes the spans to
``--out-dir``; ``profile`` runs the whole process -- package import
included -- under cProfile and reports self time per layer
(``selftime.py``).  The last line of standard output is one JSON object
with the action's host timestamps, its per-run records and its peak
resident memory.
"""

import argparse
import cProfile
import json
import os
import pickle
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MODES = ("plain", "spans", "profile")


def peak_rss_mb():
    """This process's peak resident set size.

    ``VmHWM`` starts afresh at ``exec``; ``ru_maxrss`` would also count
    the parent's pages that the child held between fork and exec.
    """
    try:
        with open("/proc/self/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=MODES, default="plain")
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--out-dir")
    args = parser.parse_args(argv)

    profile = None
    if args.mode == "profile":
        profile = cProfile.Profile()
        profiled_from = time.monotonic()
        profile.enable()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import suite  # imports the repro package: part of set-up

    imported_at = time.monotonic()
    action = suite.WORKLOADS[args.workload]
    recorder = None
    restore = None
    if args.mode == "spans":
        import spans

        recorder = spans.SpanRecorder()
        restore = spans.install(recorder)
    executor = suite.BenchExecutor(recorder=recorder,
                                   keep_artifacts=args.mode != "plain")
    try:
        extra = action(args.seed, executor)
    finally:
        if restore is not None:
            restore()
    finished = time.monotonic()
    if profile is not None:
        profile.disable()
        profiled_s = time.monotonic() - profiled_from

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "mode": args.mode,
        "import_s": imported_at - args.spawned_at,
        "action_s": finished - args.spawned_at,
        "peak_rss_mb": peak_rss_mb(),
        "runs": [record.as_dict() for record in executor.records],
    }
    out.update(extra)
    if profile is not None:
        import selftime

        out["profiled_s"] = profiled_s
        out["self_s"] = selftime.self_times(profile)
    if args.mode != "plain":
        out["artifact_kb"] = sum(
            len(pickle.dumps(record.artifact, pickle.HIGHEST_PROTOCOL))
            for record in executor.records) / 1024.0
    if recorder is not None:
        out["spans"] = recorder.totals()
        out["span_counts"] = dict(recorder.counts)
        out["span_total"] = len(recorder)
        if args.out_dir:
            os.makedirs(args.out_dir, exist_ok=True)
            path = os.path.join(args.out_dir, "spans-%s-seed%d.npz"
                                % (args.workload, args.seed))
            recorder.write(path)
            out["spans_file"] = os.path.relpath(path, ROOT)
    print(json.dumps(out, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
