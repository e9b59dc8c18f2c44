"""Shared machinery for the paper-reproduction benchmarks.

Each benchmark file regenerates one table or figure from the paper's
evaluation: it runs the calibrated experiment configurations from
``repro.bench.paperconfig``, prints the same rows/series the paper
reports (paper value alongside measured value), and asserts the *shape*
— who wins and roughly where — rather than absolute numbers, since the
substrate is a simulator rather than the authors' testbed.

Run with ``pytest benchmarks/ --benchmark-only``.  Results are cached
per session so that several benchmarks sharing a configuration (e.g.
the FCFS baseline) pay for it once.
"""

import pytest

from repro.bench.runner import run_experiment


def pytest_collection_modifyitems(config, items):
    # Wall-clock measurements (``perf_bench``) are noisy and prove
    # nothing on a loaded machine; they run only when asked for
    # explicitly (``-m perf_bench``), like the CI perf-smoke job does
    # via scripts/run_perf_bench.py.
    if config.getoption("-m"):
        return
    skip = pytest.mark.skip(
        reason="wall-clock measurement; run with -m perf_bench"
    )
    for item in items:
        if "perf_bench" in item.keywords:
            item.add_marker(skip)


_CACHE = {}


def cached_run(config):
    """Run an ExperimentConfig once per session.

    Keyed by the config's canonical content digest (repro.exec.schema)
    — the same identity the executor's on-disk artifact cache uses.
    The previous hand-rolled structural key (``_stable``/``_config_key``
    here) is gone; the schema covers every field by construction.
    Benchmarks get the :class:`RunResult`: the run's artifact plus the
    live ``sim``, ``engine`` and ``log`` (several poke at ``.sim``), so
    the cache stays in-memory.
    """
    key = config.config_digest()
    if key not in _CACHE:
        _CACHE[key] = run_experiment(config)
    return _CACHE[key]


def median(values):
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return 0.5 * (ordered[mid - 1] + ordered[mid])


def median_ratios(pairs):
    """Median of per-seed {mean, variance, p99} ratio dicts."""
    return {
        key: median([r[key] for r in pairs]) for key in ("mean", "variance", "p99")
    }


def print_paper_row(label, measured, paper, unit="x"):
    """One comparison line: measured vs the paper's reported value."""
    print(
        "  %-28s measured mean=%.2f%s var=%.2f%s p99=%.2f%s   (paper: %s)"
        % (
            label,
            measured["mean"],
            unit,
            measured["variance"],
            unit,
            measured["p99"],
            unit,
            paper,
        )
    )


@pytest.fixture(scope="session")
def run_cached():
    return cached_run
