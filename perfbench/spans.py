"""Host-time spans around the public entry points of the ``repro`` layers.

A :class:`SpanRecorder` keeps every span (name, start, end, parent,
run id) in flat in-memory columns and writes them out once, at the end
of the traced pass.  :func:`install` wraps the entry points named in
``ENTRY_POINTS`` -- from this file, without editing the package -- so
each call (or, for a generator function, each *resume*) becomes a span
whose parent is the span open when it started.

The wrappers forward every sent value and thrown exception unchanged
and add no yield, so the traced pass's run digests equal the untraced
pass's; ``run.py`` checks that.  What they cannot see is the flattened
MySQL/Postgres fast paths, which read the buffer pool, lock table and
core state directly instead of calling these functions: that is why the
per-layer self times come from the cProfile pass (``selftime.py``), not
from spans.
"""

import functools
import json
import time
from array import array

import numpy as np

from repro.bufferpool.pool import BufferPool
from repro.check import oracles
from repro.core.tracing import Tracer
from repro.exec.artifact import RunArtifact
from repro.lockmgr.manager import LockManager
from repro.sim.network import Network
from repro.telemetry.registry import MetricsRegistry
from repro.wal.mysql_log import RedoLog
from repro.wal.pg_wal import WALWriter
from repro.workloads.base import Workload

clock = time.monotonic


class SpanRecorder:
    """Spans in columns: cheap to append, compact to keep, one file out."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_id = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.run = array("i")
        self.run_id = -1
        self._stack = []
        #: Counts taken at the same boundaries as the spans.
        self.counts = {"ops_generated": 0, "traced_frames": 0}

    def open(self, name):
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        stack = self._stack
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(stack[-1] if stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(clock())

    def close(self):
        self.end[self._stack.pop()] = clock()

    def __len__(self):
        return len(self.start)

    def totals(self):
        """``{name: {"count", "total_s", "self_s"}}`` over every span.

        A span's self time is its duration minus the durations of its
        direct children.
        """
        names = np.frombuffer(self.name_id, dtype=np.int32)
        duration = (np.frombuffer(self.end, dtype=np.float64)
                    - np.frombuffer(self.start, dtype=np.float64))
        parent = np.frombuffer(self.parent, dtype=np.int32)
        children = np.zeros_like(duration)
        has_parent = parent >= 0
        np.add.at(children, parent[has_parent], duration[has_parent])
        own = duration - children
        out = {}
        for name_id, name in enumerate(self.names):
            mask = names == name_id
            out[name] = {
                "count": int(mask.sum()),
                "total_s": float(duration[mask].sum()),
                "self_s": float(own[mask].sum()),
            }
        return out

    def write(self, path):
        """Write every span to ``path`` (NumPy ``.npz``; names as JSON)."""
        np.savez_compressed(
            path,
            names=np.array(json.dumps(self.names)),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            run=np.frombuffer(self.run, dtype=np.int32),
        )


def _resumes(recorder, name, gen):
    """Drive ``gen`` unchanged, recording one span per resume."""
    value = None
    error = None
    while True:
        recorder.open(name)
        try:
            if error is None:
                command = gen.send(value)
            else:
                command, error = gen.throw(error), None
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.close()
        try:
            value = yield command
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as exc:  # forwarded into gen, as yield from does
            value, error = None, exc


def _timed_call(recorder, name, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        recorder.open(name)
        try:
            return func(*args, **kwargs)
        finally:
            recorder.close()
    return wrapper


def _timed_generator(recorder, name, func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        return _resumes(recorder, name, func(*args, **kwargs))
    return wrapper


def _make_txn(recorder, func):
    @functools.wraps(func)
    def wrapper(self, rng):
        recorder.open("Workload.make_txn")
        try:
            spec = func(self, rng)
        finally:
            recorder.close()
        recorder.counts["ops_generated"] += len(spec.ops)
        return spec
    return wrapper


def _traced(recorder, func):
    # ``traced`` is a plain function: its call is the span.  It hands an
    # uninstrumented name's sub-generator back untouched; anything else
    # is a new instrumenting frame, which is counted.
    timed = _timed_call(recorder, "Tracer.traced", func)

    @functools.wraps(func)
    def wrapper(self, ctx, name, subgen, site=None):
        gen = timed(self, ctx, name, subgen, site)
        if gen is not subgen:
            recorder.counts["traced_frames"] += 1
        return gen
    return wrapper


#: (owner, attribute, kind): "call" spans the call, "gen" each resume.
ENTRY_POINTS = (
    (BufferPool, "prewarm", "call"),
    (BufferPool, "fix_page", "gen"),
    (LockManager, "request", "call"),
    (LockManager, "wait", "gen"),
    (LockManager, "release_all", "call"),
    (RedoLog, "commit", "gen"),
    (WALWriter, "commit", "gen"),
    (Network, "send", "gen"),
    (Network, "send_delay", "call"),
    (MetricsRegistry, "snapshot", "call"),
)


def install(recorder):
    """Wrap every entry point; returns a function that unwraps them."""
    saved = []

    def patch(owner, attr, value):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    for owner, attr, kind in ENTRY_POINTS:
        func = owner.__dict__[attr]
        name = "%s.%s" % (owner.__name__, attr)
        wrap = _timed_call if kind == "call" else _timed_generator
        patch(owner, attr, wrap(recorder, name, func))
    patch(Workload, "make_txn", _make_txn(recorder, Workload.make_txn))
    patch(Tracer, "traced", _traced(recorder, Tracer.traced))
    from_result = RunArtifact.__dict__["from_result"].__func__
    patch(RunArtifact, "from_result", classmethod(
        _timed_call(recorder, "RunArtifact.from_result", from_result)))
    patch(oracles, "check_all",
          _timed_call(recorder, "check_all", oracles.check_all))

    def restore():
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)
    return restore
