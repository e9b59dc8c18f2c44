"""Selective instrumentation of simulated engine functions.

A "named function" is bracketed by inline markers in the generator that
runs it::

    on_flush = "fil_flush" in tracer.instrumented   # once per attempt
    charge = tracer.probe_charge()                   # () when probes are free
    ...
    if on_flush:
        yield from charge                # entry probe, outside the frame
        frame = tracer.enter(ctx, "fil_flush")
    yield from disk.flush()
    if on_flush:
        yield from charge                # exit probe, inside the frame
        tracer.exit(ctx, frame)

Subsystems whose body is a generator of its own can wrap it instead::

    yield from self.tracer.traced(ctx, "fil_flush", self._do_flush(ctx))

When ``"fil_flush"`` is not in the instrumented set nothing is recorded
and no virtual time passes — this is the paper's key mechanism for
keeping the latency profile representative (Section 3): only a carefully
selected subset of the call graph is timed per run.

When instrumented, entry and exit timestamps on the virtual clock are
recorded into the transaction's trace, and each probe charges
``probe_cost`` of virtual time.  TProfiler's source-level probes cost a
few tens of nanoseconds; the DTrace baseline (binary rewriting, trap into
the tracing framework) costs microseconds per probe — the difference
behind Figure 5 (left).

Factor identity: a factor is ``(function_name, site_label)``.  The site
label defaults to the name of the innermost *instrumented* caller, so the
same function invoked from two contexts (the paper's os_event_wait [A] vs
[B]) shows up as two factors; engines can pass an explicit ``site=`` for
finer splits (e.g. the select vs update call sites inside
lock_wait_suspend_thread).
"""

from repro.core.annotations import _Frame


class Tracer:
    """Records per-transaction time attribution for an instrumented subset."""

    def __init__(self, sim, callgraph, instrumented=(), probe_cost=0.0, log=None):
        self.sim = sim
        self.callgraph = callgraph
        self.instrumented = set(instrumented)
        # Kept a float so probes can use the kernel's bare-float yield.
        self.probe_cost = float(probe_cost)
        self.log = log
        self.probe_firings = 0
        # Exited frames are recycled through this freelist instead of
        # allocated per traced call — instrumented runs make one frame
        # per probe invocation, which is pure garbage the moment the
        # frame exits.  Frames abandoned mid-flight (crash paths clear
        # ``ctx.stack`` wholesale) simply escape the pool; correctness
        # never depends on recycling.
        self._frame_pool = []

    # ------------------------------------------------------------------
    # Transaction demarcation passthrough
    # ------------------------------------------------------------------

    def begin_transaction(self, ctx):
        ctx.begin()

    def end_transaction(self, ctx, committed=True):
        ctx.end()
        if self.log is not None:
            self.log.record(ctx, committed)

    # ------------------------------------------------------------------
    # Function tracing
    # ------------------------------------------------------------------

    def traced(self, ctx, name, subgen, site=None):
        """Run ``subgen`` as the body of function ``name``.

        Delegates with zero overhead when ``name`` is not instrumented:
        the sub-generator itself is returned for the caller to ``yield
        from`` directly, so an uninstrumented call adds no generator
        frame at all.  Otherwise an instrumenting wrapper brackets the
        body with :meth:`enter`/:meth:`exit` and charges the probe cost
        at entry and exit.  The engines' statement loops use the markers
        inline instead; this wrapper serves subsystems whose bodies are
        generators of their own (the WAL writers).
        """
        if ctx is None or name not in self.instrumented:
            return subgen
        return self._traced(ctx, name, subgen, site)

    def _traced(self, ctx, name, subgen, site):
        probe = self.probe_cost
        if probe:
            yield probe
        frame = self.enter(ctx, name, site)
        try:
            result = yield from subgen
        except BaseException:
            # A node crash clears ``ctx.stack`` while killed workers are
            # still inside their frames; finalizing them later must not
            # raise over a frame that is already gone.
            if frame in ctx.stack:
                self._exit_frame(ctx, frame)
            raise
        if probe:
            yield probe
        self.exit(ctx, frame)
        return result

    # ------------------------------------------------------------------
    # Inline markers
    # ------------------------------------------------------------------

    def probe_charge(self):
        """What a marker yields for one probe: ``(probe_cost,)`` or ``()``.

        Markers ``yield from`` it, so a free probe yields nothing — a
        ``yield 0.0`` would be a kernel dispatch of its own and reorder
        the ready queue.
        """
        return (self.probe_cost,) if self.probe_cost else ()

    def enter(self, ctx, name, site=None):
        """Open a frame for ``name`` starting at ``sim.now``; returns it.

        The caller tests ``name in instrumented`` itself (once per
        transaction attempt, not per call) and yields the entry probe
        (:meth:`probe_charge`) *before* calling this — the probe is
        charged outside the frame.  The site is ``site`` if
        given, else the name of the innermost open frame, else
        ``"<root>"``.  Counts the entry probe firing.
        """
        stack = ctx.stack
        parent = stack[-1] if stack else None
        if site is None:
            site = parent.key[0] if parent is not None else "<root>"
        key = (name, site)
        if self.probe_cost:
            self.probe_firings += 1
        pool = self._frame_pool
        if pool:
            frame = pool.pop()
            frame.key = key
            frame.start = self.sim.now
            frame.parent = parent
        else:
            frame = _Frame(key, self.sim.now, parent)
        stack.append(frame)
        return frame

    def exit(self, ctx, frame):
        """Close ``frame`` (the innermost one) and record its duration.

        The caller yields the exit probe (:meth:`probe_charge`) *before*
        calling this — inside the frame.  Counts the exit probe firing.
        """
        if self.probe_cost:
            self.probe_firings += 1
        self._exit_frame(ctx, frame)

    def _exit_frame(self, ctx, frame):
        if not ctx.stack or ctx.stack[-1] is not frame:
            raise RuntimeError(
                "traced frames exited out of order in txn %r" % (ctx.txn_id,)
            )
        ctx.stack.pop()
        duration = self.sim.now - frame.start
        key = frame.key
        ctx.durations[key] = ctx.durations.get(key, 0.0) + duration
        parent = frame.parent
        if parent is not None:
            per_child = ctx.under.setdefault(parent.key, {})
            per_child[key] = per_child.get(key, 0.0) + duration
        # Recycle: children always exit before their parent (enforced
        # above), so nothing can still read this frame's fields.  Drop
        # the parent link to keep the pool from pinning frame chains.
        frame.parent = None
        self._frame_pool.append(frame)

    def record(self, ctx, name, duration, site="<root>", parent=None):
        """Record a measured duration for ``name`` without a live frame.

        Used by task-concurrent engines (VoltDB) where the time on behalf
        of a transaction is not spent inside one process's call stack —
        e.g. the queue-wait interval between submission and pickup.
        ``parent`` optionally attributes the time under an instrumented
        parent factor key for variance-tree decomposition.
        """
        if ctx is None or name not in self.instrumented:
            return
        key = (name, site)
        ctx.durations[key] = ctx.durations.get(key, 0.0) + duration
        if parent is not None and parent[0] in self.instrumented:
            per_child = ctx.under.setdefault(parent, {})
            per_child[key] = per_child.get(key, 0.0) + duration

    # ------------------------------------------------------------------
    # Instrumentation control (the iterative-refinement knob)
    # ------------------------------------------------------------------

    def instrument(self, names):
        """Add functions to the instrumented set (validated against the graph)."""
        for name in names:
            if self.callgraph is not None and name not in self.callgraph:
                raise KeyError("unknown function %r" % (name,))
            self.instrumented.add(name)

    def clear(self):
        self.instrumented.clear()

    def __repr__(self):
        return "<Tracer instrumented=%d probe_cost=%r>" % (
            len(self.instrumented),
            self.probe_cost,
        )
