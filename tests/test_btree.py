"""B-tree cost model: depth, page mapping, insert paths."""

import math
import random

import pytest

from repro.storage.btree import BTreeIndex
from repro.storage.tables import Table, TableCatalog


def test_depth_grows_with_keys():
    small = BTreeIndex("t", 1000, fanout=10, keys_per_leaf=10)
    large = BTreeIndex("t", 1_000_000, fanout=10, keys_per_leaf=10)
    assert large.depth > small.depth


def test_single_leaf_has_zero_depth():
    tiny = BTreeIndex("t", 10, keys_per_leaf=64)
    assert tiny.depth == 0
    assert tiny.n_leaves == 1


def test_leaf_page_stable_and_partitioned():
    index = BTreeIndex("t", 10_000, keys_per_leaf=100)
    assert index.leaf_page(5) == index.leaf_page(5)
    assert index.leaf_page(0) == index.leaf_page(99)
    assert index.leaf_page(0) != index.leaf_page(100)


def test_interior_pages_count_matches_depth():
    index = BTreeIndex("t", 1_000_000, fanout=100, keys_per_leaf=100)
    assert len(index.interior_pages(123)) == index.depth


def test_interior_pages_shared_by_nearby_keys():
    index = BTreeIndex("t", 1_000_000, fanout=100, keys_per_leaf=100)
    assert index.interior_pages(0) == index.interior_pages(50)


def test_total_pages_consistent_with_iter_pages():
    index = BTreeIndex("t", 123_456, fanout=50, keys_per_leaf=64)
    pages = list(index.iter_pages())
    assert len(pages) == index.total_pages
    assert len(set(pages)) == len(pages)


def _float_width_pages(index):
    """Page ids as the float-power width formula enumerated them."""
    depth = 0
    width = index.n_leaves
    while width > 1:
        width = int(math.ceil(width / float(index.fanout)))
        depth += 1
    pages = []
    for level in range(depth, 0, -1):
        width = int(math.ceil(
            index.n_leaves / float(index.fanout) ** (depth - level + 1)))
        pages.extend((index.name, "int%d" % level, s) for s in range(width))
    pages.extend((index.name, "leaf", leaf) for leaf in range(index.n_leaves))
    return pages, depth


def _boundary_key_counts(fanout, keys_per_leaf, max_keys=100_000):
    """1, each power of ``fanout * keys_per_leaf`` and its neighbours."""
    counts = {1}
    exact = fanout * keys_per_leaf
    while exact <= max_keys:
        counts.update((exact - 1, exact, exact + 1))
        exact *= fanout * keys_per_leaf
    return sorted(counts)


BOUNDARY_SHAPES = [(2, 1), (3, 2), (7, 3), (10, 10), (100, 64)]


def _sample_keys(n_keys, keys_per_leaf):
    """First and last key, and the keys either side of each leaf edge."""
    keys = {0, n_keys - 1}
    for leaf in (1, 2, n_keys // keys_per_leaf):
        edge = leaf * keys_per_leaf
        keys.update(k for k in (edge - 1, edge) if 0 <= k < n_keys)
    return sorted(keys)


@pytest.mark.parametrize("fanout,keys_per_leaf", BOUNDARY_SHAPES)
def test_page_ids_match_float_width_formula(fanout, keys_per_leaf):
    """The int layout numbers the float-width oracle's pages in order.

    Each oracle page ``(name, "int<L>" or "leaf", slot)`` gets its
    position as its id, and a descent's ids are the oracle pages a
    search visits: ``int<depth>`` (the widest level) down to ``int1``
    (the root), then the leaf.
    """
    for n_keys in _boundary_key_counts(fanout, keys_per_leaf):
        index = BTreeIndex("t", n_keys, fanout=fanout, keys_per_leaf=keys_per_leaf)
        pages, depth = _float_width_pages(index)
        assert list(index.iter_pages()) == list(range(len(pages))), n_keys
        assert index.depth == depth
        assert index.total_pages == len(pages)
        assert len(index.level_widths) == depth
        position = {page: i for i, page in enumerate(pages)}
        for key in _sample_keys(n_keys, keys_per_leaf):
            slot = key // keys_per_leaf
            expected = tuple(
                position[("t", "int%d" % (depth - i), slot // fanout ** (i + 1))]
                for i in range(depth)
            )
            assert index.interior_pages(key) == expected, (n_keys, key)
            assert index.leaf_page(key) == position[("t", "leaf", slot)]


@pytest.mark.parametrize("fanout,keys_per_leaf", BOUNDARY_SHAPES)
def test_descent_ids_stay_in_their_tables_range(fanout, keys_per_leaf):
    sizes = _boundary_key_counts(fanout, keys_per_leaf)
    catalog = TableCatalog()
    for i, n_keys in enumerate(sizes):
        catalog.add(
            Table("t%d" % i, n_keys, fanout=fanout, keys_per_leaf=keys_per_leaf)
        )
    for table in catalog:
        index = table.index
        own = range(index.first_page, index.first_page + index.total_pages)
        assert list(index.iter_pages()) == list(own)
        for key in _sample_keys(index.n_keys, keys_per_leaf):
            for page_id in index.interior_pages(key) + (index.leaf_page(key),):
                assert type(page_id) is int and page_id in own, (table, key)


def test_search_pages_are_subset_of_iter_pages():
    index = BTreeIndex("t", 50_000, fanout=30, keys_per_leaf=64)
    all_pages = set(index.iter_pages())
    for key in (0, 1, 777, 49_999):
        for page in index.interior_pages(key):
            assert page in all_pages
        assert index.leaf_page(key) in all_pages


def test_insert_outcome_distribution():
    index = BTreeIndex(
        "t", 1000, split_probability=0.1, reorg_probability=0.05
    )
    rng = random.Random(7)
    # The three code paths have distinct costs, so a cost names its path.
    costs = [index.insert_cost(rng) for _ in range(5000)]
    fraction = lambda cost: costs.count(cost) / len(costs)
    assert fraction(index.reorg_cpu_cost) == pytest.approx(0.05, abs=0.02)
    assert fraction(index.split_cpu_cost) == pytest.approx(0.1, abs=0.03)
    assert fraction(index.insert_cpu_cost) == pytest.approx(0.85, abs=0.03)
    assert len(set(costs)) == 3


def test_insert_body_cost_ordering():
    """Splits cost more than plain inserts; reorgs cost most — the
    inherent variance of row_ins_clust_index_entry_low."""
    index = BTreeIndex("t", 1000)

    class FixedRng:
        def __init__(self, draw):
            self._draw = draw

        def random(self):
            return self._draw

    reorg = index.insert_cost(FixedRng(0.0))
    split = index.insert_cost(FixedRng(index.reorg_probability + 1e-9))
    plain = index.insert_cost(FixedRng(0.99))
    assert reorg > split > plain


def test_descent_path_is_interior_pages_then_leaf():
    index = BTreeIndex("t", 1_000_000, fanout=10, keys_per_leaf=10)
    for key in (0, 9, 10, 12_345, 999_999, 1_000_007):
        path = index.descent_path(key)
        assert path == index.interior_pages(key) + (index.leaf_page(key),)
        assert len(path) == index.depth + 1
        # Cached per leaf slot: keys sharing a leaf share the tuple.
        slot_start = key - key % index.keys_per_leaf
        assert index.descent_path(slot_start) is path


def test_invalid_key_count():
    with pytest.raises(ValueError):
        BTreeIndex("t", 0)
