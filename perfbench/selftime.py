"""Per-layer host self time from one cProfile pass.

Every profiled function belongs to a *layer*: a ``repro`` package, or a
module of ``repro.sim`` / ``repro.engines``, which the ledger splits
further.  Code outside the package (C builtins, the standard library)
owns no layer: its self time is charged to whoever called it, in
proportion to the time each caller spent in it, following caller links
until a layer is reached.  The benchmark's own files form the
``harness`` layer; ``repro`` modules without a row of their own go to
``other``.
"""

import os
import pstats

import repro

#: The layers reported as ``<layer>.self_s``, in report order.
LAYERS = (
    "sim.kernel", "sim.rand", "sim.resources", "sim.disk", "sim.network",
    "engines.mysql", "engines.postgres", "engines.voltdb", "engines.base",
    "lockmgr", "bufferpool", "storage", "wal", "workloads", "core",
    "telemetry", "check", "cluster", "replication", "exec", "bench",
    "other", "harness",
)

_SPLIT = {"sim", "engines"}
_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_HARNESS_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep


def layer_of(filename):
    """The layer a source file belongs to; None outside repro and harness."""
    path = os.path.abspath(filename)
    if path.startswith(_HARNESS_DIR):
        return "harness"
    if not path.startswith(_REPRO_DIR):
        return None
    parts = path[len(_REPRO_DIR):].split(os.sep)
    if len(parts) == 1:
        return "other"
    layer = parts[0]
    if layer in _SPLIT:
        layer = "%s.%s" % (layer, os.path.splitext(parts[1])[0])
    return layer if layer in LAYERS else "other"


def self_times(profile):
    """``{layer: seconds}`` of self time, with foreign code charged upward."""
    stats = pstats.Stats(profile).stats
    owners = {}

    def owner_shares(func, visiting):
        # {layer: fraction} of func's self time; memoised per function.
        layer = layer_of(func[0]) if func[0] not in ("~", "") else None
        if layer is not None:
            return {layer: 1.0}
        if func in owners:
            return owners[func]
        callers = stats[func][4] if func in stats else {}
        weights = {caller: entry[2] for caller, entry in callers.items()}
        total = sum(weights.values())
        if total <= 0.0:
            weights = {caller: entry[1] for caller, entry in callers.items()}
            total = sum(weights.values())
        shares = {}
        if total <= 0.0 or func in visiting:
            shares["harness"] = 1.0  # a root or a cycle of foreign code
        else:
            visiting.add(func)
            for caller, weight in weights.items():
                for layer, part in owner_shares(caller, visiting).items():
                    shares[layer] = shares.get(layer, 0.0) + part * weight / total
            visiting.discard(func)
        owners[func] = shares
        return shares

    totals = dict.fromkeys(LAYERS, 0.0)
    for func, (_cc, _nc, tottime, _ct, _callers) in stats.items():
        for layer, part in owner_shares(func, set()).items():
            totals[layer] += tottime * part
    return totals
