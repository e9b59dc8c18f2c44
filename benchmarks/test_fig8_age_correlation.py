"""Figure 8 / Appendix C.2 — correlation of a transaction's age with its
remaining time at scheduling decisions.

Paper: the correlation is small (within roughly +/- 0.3) for every
TPC-C transaction type, regardless of type — the evidence behind the
i.i.d. remaining-time assumption of Theorem 1.
"""

import pytest

from benchmarks.conftest import cached_run
from repro.bench import paperconfig as pc
from repro.sim.stats import correlation

TXN_TYPES = ("NewOrder", "Payment", "OrderStatus", "Delivery", "StockLevel")


def collect_age_remaining(result):
    """(age, remaining) samples at every post-wait lock grant."""
    end_by_id = {
        t.txn_id: t.end for t in result.all_traces if t.committed
    }
    per_type = {t: ([], []) for t in TXN_TYPES}
    per_type["ALL"] = ([], [])
    for ctx, grant_time in result.engine.lockmgr.grant_log:
        end = end_by_id.get(ctx.txn_id)
        if end is None or end <= grant_time:
            continue
        for bucket in (ctx.txn_type, "ALL"):
            if bucket in per_type:
                per_type[bucket][0].append(grant_time - ctx.birth)
                per_type[bucket][1].append(end - grant_time)
    return per_type


def test_fig8_low_age_remaining_correlation(benchmark):
    def run():
        samples = {t: ([], []) for t in TXN_TYPES}
        samples["ALL"] = ([], [])
        for seed in pc.SEEDS:
            result = cached_run(pc.mysql_128wh_experiment("FCFS", seed=seed))
            for bucket, (ages, rems) in collect_age_remaining(result).items():
                samples[bucket][0].extend(ages)
                samples[bucket][1].extend(rems)
        return samples

    samples = benchmark.pedantic(run, rounds=1, iterations=1)
    print()
    print("  correlation(age, remaining) at scheduling decisions:")
    checked = 0
    for bucket in ("ALL",) + TXN_TYPES:
        ages, rems = samples[bucket]
        if len(ages) < 30:
            print("  %-12s (too few waits: %d)" % (bucket, len(ages)))
            continue
        rho = correlation(ages, rems)
        print("  %-12s rho=%+.3f n=%d (paper: within ~+/-0.3)" % (bucket, rho, len(ages)))
        assert abs(rho) < 0.45, bucket
        checked += 1
    assert checked >= 2  # at least the aggregate and one txn type
